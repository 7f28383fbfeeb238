"""Phase-space numerics: Wigner grids, the closed-form interference
term of the evolved cat, finite-window time averaging, and fringe
metrics.

Convention: W(x, p) = (1/pi) <psi| D(2 lam) Pi |psi>, lam = (x+ip)/sqrt(2),
so a coherent state |a> gives (1/pi) exp[-(x - sqrt2 Re a)^2
- (p - sqrt2 Im a)^2] and the Riemann sum over dx dp is 1.  With this
normalization |W| <= 1/pi for any state.

The closed-form interference term is defined WITHOUT the cat's
normalization factor; callers multiply by N^2 explicitly when comparing
against full-state numerics.  The decomposition test pins that
bookkeeping.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .errors import DomainError, ValidationError
from .fock import FieldState, ModelParams, _scaled_diagonal
from .propagator import frame

__all__ = [
    "WignerGrid",
    "default_grid",
    "wigner_numeric",
    "w_int_closed",
    "interference_phase_offset",
    "fit_interference_offset",
    "count_time_zero_crossings",
    "TimeAverageReport",
    "time_average",
    "fringe_visibility",
    "save_wgrd",
    "load_wgrd",
    "save_csv",
    "load_csv",
]

MAX_SPACING = 0.25  # resolves unit-variance Gaussian envelopes
_WGRD_MAGIC = b"WGRD"
_WGRD_VERSION = 2  # tag 0 marks version 1: float32 bounds only


@dataclass(frozen=True)
class WignerGrid:
    """Rectangular phase-space grid with values W[ix, ip].

    Axis points are implied: x runs over nx uniform samples on
    [x_min, x_max], likewise p; both spacings must stay at or below
    0.25.
    """

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    nx: int
    np: int
    values: np.ndarray

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.p_max > self.p_min):
            raise ValidationError("grid bounds must be increasing")
        if self.nx < 2 or self.np < 2:
            raise ValidationError("need at least 2 points per axis")
        if self.dx > MAX_SPACING + 1e-12 or self.dp > MAX_SPACING + 1e-12:
            raise ValidationError(
                f"grid spacing ({self.dx:.4f}, {self.dp:.4f}) exceeds {MAX_SPACING}")
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (self.nx, self.np):
            raise ValidationError(
                f"values shape {vals.shape} != ({self.nx}, {self.np})")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("grid values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.np - 1)

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_axis, self.p_axis, indexing="ij")

    def integral(self) -> float:
        """Riemann sum; lands in [0.98, 1.02] for a normalized state on
        a grid covering 6 sigma around every branch center."""
        return float(self.values.sum() * self.dx * self.dp)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_values(self, values: np.ndarray) -> "WignerGrid":
        return WignerGrid(self.x_min, self.x_max, self.p_min, self.p_max,
                          self.nx, self.np, values)

    def same_geometry(self, other: "WignerGrid") -> bool:
        return (self.nx == other.nx and self.np == other.np
                and self.x_min == other.x_min and self.x_max == other.x_max
                and self.p_min == other.p_min and self.p_max == other.p_max)

    @classmethod
    def empty(cls, x_min: float, x_max: float, p_min: float, p_max: float,
              spacing: float = 0.1) -> "WignerGrid":
        """Zero-valued grid over the given bounds; the actual spacing is
        the largest value <= ``spacing`` that fits the span exactly."""
        if spacing <= 0 or spacing > MAX_SPACING + 1e-12:
            raise ValidationError(f"spacing must be in (0, {MAX_SPACING}]")
        nx = int(math.ceil((x_max - x_min) / spacing)) + 1
        npts = int(math.ceil((p_max - p_min) / spacing)) + 1
        return cls(x_min, x_max, p_min, p_max, nx, npts,
                   np.zeros((nx, npts)))


def default_grid(centers: Iterable[complex], spacing: float = 0.1) -> WignerGrid:
    """Grid covering 6 standard deviations (sigma = 1/sqrt2 in these
    quadratures) around every coherent branch center, given in
    field-amplitude units."""
    cs = [complex(c) for c in centers]
    if not cs:
        raise DomainError("need at least one branch center")
    xs = [math.sqrt(2) * c.real for c in cs]
    ps = [math.sqrt(2) * c.imag for c in cs]
    pad = 6.0 / math.sqrt(2)
    return WignerGrid.empty(min(xs) - pad, max(xs) + pad,
                            min(ps) - pad, max(ps) + pad, spacing)


def wigner_numeric(state: FieldState, grid: WignerGrid) -> WignerGrid:
    """Displaced-parity Wigner evaluation of a truncated state.

    Runs the parity sum one displacement diagonal at a time with the
    magnitude-bounded kernel, so no term can overflow however far the
    grid reaches.  States whose tail mass exceeds 1e-6 are rejected:
    past that point the missing amplitudes would corrupt the sum by
    more than the advertised accuracy.

    The sum runs over the state's support only: ``dmax`` is the last
    photon number whose suffix norm sqrt(sum_{n>=dmax} |psi_n|^2) is at
    least 1e-12, and diagonal d runs to row dmax - d, not to the cutoff.
    Every dropped term holds an amplitude above ``dmax``, so by
    Cauchy-Schwarz (|M| <= 1) each diagonal changes by less than 1e-12.
    """
    state.require_tail(1e-6)
    amps = state.amplitudes
    suffix = np.sqrt(np.cumsum((np.abs(amps) ** 2)[::-1])[::-1])
    dmax = amps.size - 1
    while dmax > 0 and suffix[dmax] < 1e-12:
        dmax -= 1
    psi = amps[: dmax + 1]
    signs = (-1.0) ** np.arange(dmax + 1)
    # real and imaginary parts stacked, so each diagonal is one real GEMM
    weights = []
    for d in range(dmax + 1):
        w = np.conjugate(psi[d:]) * signs[: dmax - d + 1] * psi[: dmax - d + 1]
        weights.append(np.stack([w.real, w.imag]))

    X, P = grid.meshgrid()
    xs, ps = X.ravel(), P.ravel()
    out = np.empty(xs.size)
    chunk = 16384
    for lo in range(0, xs.size, chunk):
        x = xs[lo:lo + chunk]
        p = ps[lo:lo + chunk]
        xarg = 2.0 * (x * x + p * p)
        eith = np.exp(1j * np.arctan2(p, x))
        acc = np.zeros(x.size)
        ph = np.ones(x.size, dtype=complex)
        for d in range(dmax + 1):
            re, im = weights[d] @ _scaled_diagonal(d, xarg, dmax - d)
            contrib = ph.real * re - ph.imag * im
            acc += contrib if d == 0 else 2.0 * contrib
            ph *= eith
        out[lo:lo + chunk] = acc / math.pi
    return grid.with_values(out.reshape(grid.nx, grid.np))


def interference_phase_offset(params: ModelParams, alpha: float, phi: float,
                              t: float) -> float:
    """The spatially constant part of the interference-fringe phase:
    alpha^2 sin 2phi + 4 alpha (N g / omega) sin phi (1 - cos omega t).
    Grows linearly with N at fixed coupling ratio."""
    wt = params.omega * t
    return (alpha**2 * math.sin(2 * phi)
            + 4.0 * alpha * (params.n_atoms * params.g / params.omega)
            * math.sin(phi) * (1.0 - math.cos(wt)))


def _fringe_factors(params: ModelParams, alpha: float, phi: float, t: float,
                    grid: WignerGrid) -> tuple[np.ndarray, np.ndarray]:
    """1-D complex factors of the interference term over the grid axes,

        fx = exp[-(x-xb)^2 - i k cos(wt) x],  fp = exp[-(p-pb)^2 + i k sin(wt) p],

    with k = 2 sqrt2 a sin(phi) and (xb, pb) the branch midpoint, so that
    envelope * e^{i fringe phase} = fx[:, None] * fp[None, :]."""
    fr = frame(params, alpha, phi, t)
    wt = params.omega * t
    mid = fr.beta_prime + alpha * math.cos(phi) * complex(math.cos(wt), -math.sin(wt))
    xb, pb = math.sqrt(2) * mid.real, math.sqrt(2) * mid.imag
    k = 2.0 * math.sqrt(2) * alpha * math.sin(phi)
    x, p = grid.x_axis, grid.p_axis
    fx = np.exp(-((x - xb) ** 2) - 1j * (k * math.cos(wt)) * x)
    fp = np.exp(-((p - pb) ** 2) + 1j * (k * math.sin(wt)) * p)
    return fx, fp


def _re_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re[u (x) v] as one real rank-2 GEMM; much faster than np.outer."""
    return np.column_stack([u.real, -u.imag]) @ np.vstack([v.real, v.imag])


def w_int_closed(params: ModelParams, alpha: float, phi: float, t: float,
                 grid: WignerGrid) -> WignerGrid:
    """Closed-form interference term of the leading-order evolved cat,
    without the cat normalization factor:

        (2/pi) exp[-(x-xb)^2 - (p-pb)^2]
             * cos[2 sqrt2 a sin(phi) (p sin wt - x cos wt) + offset]

    centered on the branch midpoint m = beta' + a cos(phi) e^{-i w t}
    (xb = sqrt2 Re m, pb = sqrt2 Im m), with ``offset`` from
    interference_phase_offset.  Evaluated as Re[c fx (x) fp] with
    c = (2/pi) e^{i offset} and the 1-D factors of :func:`_fringe_factors`."""
    fx, fp = _fringe_factors(params, alpha, phi, t, grid)
    c = (2.0 / math.pi) * np.exp(1j * interference_phase_offset(params, alpha, phi, t))
    return grid.with_values(_re_outer(c * fx, fp))


def fit_interference_offset(grid: WignerGrid, params: ModelParams, alpha: float,
                            phi: float, t: float) -> float:
    """Recover the constant fringe phase from an interference grid by
    envelope-weighted least squares against the known linear part.
    Returns the principal value in (-pi, pi]."""
    fx, fp = _fringe_factors(params, alpha, phi, t, grid)
    # vals = env (cos lin cos c - sin lin sin c) = Re[e^{ic} (2/pi) fx (x) fp]:
    # 2x2 normal equations on the bases a1 = Re, a2 = -Im of (2/pi) fx (x) fp
    gx = (2.0 / math.pi) * fx
    a1 = _re_outer(gx, fp).ravel()
    a2 = _re_outer(1j * gx, fp).ravel()
    b = np.asarray(grid.values).ravel()
    g11, g12, g22 = a1 @ a1, a1 @ a2, a2 @ a2
    r1, r2 = a1 @ b, a2 @ b
    det = g11 * g22 - g12 * g12
    if det <= 0 or not np.isfinite(det):
        raise DomainError("fringe geometry is degenerate; cannot fit a phase")
    u = (g22 * r1 - g12 * r2) / det
    v = (g11 * r2 - g12 * r1) / det
    return math.atan2(v, u)


def count_time_zero_crossings(params: ModelParams, alpha: float, phi: float) -> int:
    """Sign changes of the central fringe cos(offset(t)) at 4096 midpoint
    samples over one field period; grows linearly with N at fixed
    coupling ratio."""
    period, n = 2 * math.pi / params.omega, 4096
    ts = (np.arange(n) + 0.5) * (period / n)
    vals = np.cos([interference_phase_offset(params, alpha, phi, t) for t in ts])
    return int(np.count_nonzero(np.diff(np.sign(vals)) != 0))


@dataclass(frozen=True)
class TimeAverageReport:
    """Outcome of the convergence-by-doubling loop."""

    n_samples: int
    doublings: int
    max_change: float
    converged: bool


def _mean_of_samples(evaluator, t0: float, t1: float, n: int) -> tuple[np.ndarray, Any]:
    """Midpoint mean of n samples, and the last sample, whose geometry a
    grid result takes.  A sample is held, not copied, until the next one
    is added to it, so an evaluator must not overwrite an array it has
    already returned."""
    # midpoint sampling: exact for full periods of trig signals; pairwise
    # reduction keeps the result independent of any chunking
    h = (t1 - t0) / n
    stack: list[tuple[int, np.ndarray, int]] = []  # (level, sum, count)
    for i in range(n):
        v = evaluator(t0 + (i + 0.5) * h)
        arr = np.asarray(v.values if isinstance(v, WignerGrid) else v, dtype=np.float64)
        level, acc, cnt = 0, arr, 1
        while stack and stack[-1][0] == level:
            lvl, prev, pcnt = stack.pop()
            acc = prev + acc
            cnt += pcnt
            level += 1
        stack.append((level, acc, cnt))
    total = stack[0][1]
    for _, part, _ in stack[1:]:
        total = part + total
    return total / n, v


def time_average(
    evaluator: Callable[[float], "WignerGrid | np.ndarray | float"],
    window: tuple[float, float],
) -> tuple["WignerGrid | np.ndarray", TimeAverageReport]:
    """Uniform finite-window average of a time-dependent grid (or plain
    array/scalar signal), the operational stand-in for a summability
    limit of the oscillating interference term.

    Starts from 64 midpoint samples and doubles the count until the
    pointwise change drops below 1e-4; after 4 doublings without
    convergence the result is returned flagged rather than raised, so
    sweeps can report partial data.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got {window}")
    n = 64
    current, sample = _mean_of_samples(evaluator, t0, t1, n)
    doublings = 0
    max_change = math.inf
    converged = False
    while doublings < 4:
        n *= 2
        doublings += 1
        refined, sample = _mean_of_samples(evaluator, t0, t1, n)
        max_change = float(np.max(np.abs(refined - current)))
        current = refined
        if max_change < 1e-4:
            converged = True
            break
    report = TimeAverageReport(n_samples=n, doublings=doublings,
                               max_change=max_change, converged=converged)
    if isinstance(sample, WignerGrid):
        return sample.with_values(current), report
    return current, report


def fringe_visibility(w_full: WignerGrid, w_branches: WignerGrid) -> float:
    """Sup-norm of the interference residual relative to the branch
    background, clipped to [0, 2]."""
    if not w_full.same_geometry(w_branches):
        raise ValidationError("visibility needs identical grids")
    denom = w_branches.sup_norm()
    if denom == 0.0:
        raise DomainError("branch grid is identically zero")
    ratio = float(np.max(np.abs(w_full.values - w_branches.values))) / denom
    return min(max(ratio, 0.0), 2.0)


# ------------------------------------------------------------- serialization

def save_wgrd(grid: WignerGrid, path) -> None:
    """Dense binary block, all little-endian: a 32-byte header (magic
    "WGRD", uint32 nx/np, float32 bounds, uint32 version tag 2), the
    four bounds again as float64, then row-major float64 values."""
    header = (_WGRD_MAGIC
              + struct.pack("<II", grid.nx, grid.np)
              + struct.pack("<4f", grid.x_min, grid.x_max, grid.p_min, grid.p_max)
              + struct.pack("<I", _WGRD_VERSION)
              + struct.pack("<4d", grid.x_min, grid.x_max, grid.p_min, grid.p_max))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def load_wgrd(path) -> WignerGrid:
    """Read a WGRD block.  Version 1 blocks (tag 0: reserved bytes, no
    float64 bounds) still load, with their float32 bounds."""
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:4] != _WGRD_MAGIC:
            raise ValidationError(f"{path}: not a WGRD block")
        nx, npts = struct.unpack("<II", header[4:12])
        bounds = struct.unpack("<4f", header[12:28])
        (version,) = struct.unpack("<I", header[28:32])
        if version == _WGRD_VERSION:
            extents = fh.read(32)
            if len(extents) != 32:
                raise ValidationError(f"{path}: truncated WGRD header")
            bounds = struct.unpack("<4d", extents)
        elif version != 0:
            raise ValidationError(f"{path}: unknown WGRD version tag {version}")
        data = np.frombuffer(fh.read(nx * npts * 8), dtype="<f8")
    if data.size != nx * npts:
        raise ValidationError(f"{path}: truncated WGRD payload")
    return WignerGrid(*bounds, nx, npts, data.reshape(nx, npts))


def save_csv(grid: WignerGrid, path) -> None:
    """Three-column x,p,W rows, x-major, '.' decimals, LF endings."""
    ps = [f"{p:.17g}," for p in grid.p_axis.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,p,W\n")
        for x, row in zip(grid.x_axis.tolist(), grid.values.tolist()):
            xc = f"{x:.17g},"
            fh.write("".join([f"{xc}{p}{v:.17g}\n" for p, v in zip(ps, row)]))


def load_csv(path) -> WignerGrid:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValidationError(f"{path}: expected x,p,W columns")
    xs = np.unique(data[:, 0])
    ps = np.unique(data[:, 1])
    nx, npts = xs.size, ps.size
    if nx * npts != data.shape[0]:
        raise ValidationError(f"{path}: grid is not rectangular")
    vals = data[:, 2].reshape(nx, npts)
    return WignerGrid(float(xs[0]), float(xs[-1]), float(ps[0]), float(ps[-1]),
                      nx, npts, vals)
