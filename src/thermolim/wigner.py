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
import os
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .errors import DomainError, QuadratureError, ValidationError
from .fock import FieldState, ModelParams, _support
from .propagator import _cat_centers

__all__ = [
    "WignerGrid",
    "default_grid",
    "wigner_numeric",
    "w_int_closed",
    "w_int_mean",
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
_TIME_BLOCK = 32  # times per GEMM in w_int_mean; bounds the factor stacks
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


def _hermite_series(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Position wavefunction psi(u) = sum_n coeffs[n] phi_n(u) over the
    Hermite functions phi_n(u) = <u|n> = (2^n n! sqrt(pi))^(-1/2) H_n(u)
    e^(-u^2/2).

    Runs the normalised recurrence phi_n = sqrt(2/n) u phi_(n-1)
    - sqrt((n-1)/n) phi_(n-2), carried as v_n exp(s) with the pair
    (v_(n-1), v_n) divided back to magnitude <= 1 after every step and the
    factor moved into s.  Each phi_n is bounded, so nothing overflows, and
    e^(-u^2/2) is never formed on its own: it underflows past |u| ~ 38,
    where phi_n is still O(1e-2) for n in the hundreds.
    """
    log_scale = -0.5 * u * u - 0.25 * math.log(math.pi)
    prev, cur = np.zeros_like(u), np.ones_like(u)
    psi = coeffs[0] * np.exp(log_scale)
    for n in range(1, coeffs.size):
        prev, cur = cur, math.sqrt(2.0 / n) * u * cur - math.sqrt((n - 1) / n) * prev
        r = np.maximum(np.abs(cur), 1.0)
        prev /= r
        cur /= r
        log_scale += np.log(r)
        psi += coeffs[n] * (cur * np.exp(log_scale))
    return psi


def wigner_numeric(state: FieldState, grid: WignerGrid) -> WignerGrid:
    """Wigner grid of a truncated state from its position wavefunction.

    Evaluates the overlap integral (Hillery et al., Phys. Rep. 106, 121
    (1984))

        W(x, p) = (1/pi) int psi*(x+y) psi(x-y) e^(2ipy) dy,

    which equals the displaced-parity form of the module convention, by
    the trapezoid rule on a lattice u = x_min + j h with h = dx/m, so
    every x_i +- k h is a lattice point.

    Support.  ``dmax`` is the last photon number whose suffix norm
    sqrt(sum_(n>=dmax) |psi_n|^2) is at least 1e-12, and psi(u) is summed
    over n <= dmax only.  The Wigner map is sesquilinear with
    |W_(a,b)| <= ||a|| ||b|| / pi, so the dropped part moves W by less than
    1e-12.  Every phi_n with n <= dmax is negligible past R = sqrt(2 dmax
    + 1) + 8, its turning point plus 8, so the sum runs over |y| <= R,
    k = 0..ceil(R/h).

    Step.  phi_n is its own Fourier transform, so psi is band-limited to
    about R and the integrand in y to 2R + 2|p|.  The trapezoid sum of a
    band-limited function is exact up to its first alias at 2 pi / h
    (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); m = ceil(2 dx (R +
    max|p|) / pi) keeps the band a factor of 2 below it.

    Evaluation.  With A[i, k] = conj(psi(x_i + kh)) psi(x_i - kh), the
    integrand at -y is the conjugate of that at y, so W = (h/pi) sum_k
    c_k Re[A e^(2ipkh)] with c_0 = 1 and c_k = 2 otherwise: one real GEMM
    [Re A, -Im A] @ [c cos; c sin] per block of 64 x-rows.

    Checks.  States whose tail mass exceeds 1e-6 are rejected with
    :class:`CutoffError`: past that point the missing amplitudes would
    corrupt W by more than the advertised accuracy.  The lattice covers
    [-R, R] as well as [x_min - R, x_max + R], and h sum |psi(u)|^2 must
    equal sum_(n<=dmax) |psi_n|^2 to 1e-12 relative, else
    :class:`QuadratureError` is raised: a lattice that misses psi's
    support or under-samples it fails here rather than returning a
    wrong grid.
    """
    state.require_tail(1e-6)
    amps = state.amplitudes
    dmax = _support(amps, 1e-12)
    coeffs = amps[: dmax + 1]

    reach = math.sqrt(2 * dmax + 1) + 8.0
    p = grid.p_axis
    m = math.ceil(2.0 * grid.dx * (reach + np.max(np.abs(p))) / math.pi)
    h = grid.dx / m
    kmax = math.ceil(reach / h)
    # lattice indices j relative to x_min; row i of the grid sits at j = i m
    lo = min(-kmax, math.floor((-reach - grid.x_min) / h))
    hi = max((grid.nx - 1) * m + kmax, math.ceil((reach - grid.x_min) / h))
    psi = _hermite_series(coeffs, grid.x_min + np.arange(lo, hi + 1) * h)

    norm2 = float(np.sum(np.abs(coeffs) ** 2))
    drift = h * float(np.sum(np.abs(psi) ** 2)) - norm2
    if abs(drift) > 1e-12 * norm2:
        raise QuadratureError(
            f"position-space norm drift {drift:.3e} against {norm2:.6g} "
            f"on the lattice h = {h:.4g}, R = {reach:.4g}")

    k = np.arange(kmax + 1)
    weight = np.where(k == 0, h / math.pi, 2.0 * h / math.pi)[:, None]
    arg = 2.0 * h * np.outer(k, p)
    basis = np.vstack([weight * np.cos(arg), weight * np.sin(arg)])
    windows = np.lib.stride_tricks.sliding_window_view(psi, kmax + 1)
    rows = np.arange(grid.nx) * m - lo
    out = np.empty((grid.nx, p.size))
    block = 64
    for i0 in range(0, grid.nx, block):
        centre = rows[i0:i0 + block]
        a = np.conjugate(windows[centre]) * windows[centre - kmax][:, ::-1]
        out[i0:i0 + block] = np.hstack([a.real, -a.imag]) @ basis
    return grid.with_values(out)


def interference_phase_offset(params: ModelParams, alpha: float, phi: float, t):
    """The spatially constant part of the interference-fringe phase:
    alpha^2 sin 2phi + 4 alpha N g sin phi (1 - cos t), where g means g/omega
    and t means omega t, one time or an array.  Grows linearly with N at fixed coupling."""
    return (alpha**2 * math.sin(2 * phi)
            + 4.0 * alpha * (params.n_atoms * params.g)
            * math.sin(phi) * (1.0 - np.cos(t)))


def _fringe_factors(params: ModelParams, alpha: float, phi: float, ts: np.ndarray,
                    grid: WignerGrid) -> tuple[np.ndarray, np.ndarray]:
    """1-D complex factors of the interference term over the grid axes,
    one row per time t in ``ts``:

        fx = exp[-(x-xb)^2 - i k cos(t) x],  fp = exp[-(p-pb)^2 + i k sin(t) p],

    with k = 2 sqrt2 a sin(phi) and (xb, pb) the midpoint of the two
    :func:`propagator._cat_centers` at t, so that envelope * e^{i fringe
    phase} = fx[i, :, None] * fp[i, None, :] at ts[i].  Returns the
    (n, nx) and (n, np) stacks."""
    ts = np.asarray(ts, dtype=np.float64).ravel()
    mid = math.sqrt(2) * _cat_centers(params, alpha, phi, ts).mean(axis=0)[:, None]
    k = 2.0 * math.sqrt(2) * alpha * math.sin(phi)
    x, p = grid.x_axis, grid.p_axis
    fx = np.exp(-((x - mid.real) ** 2) - 1j * (k * np.cos(ts)[:, None]) * x)
    fp = np.exp(-((p - mid.imag) ** 2) + 1j * (k * np.sin(ts)[:, None]) * p)
    return fx, fp


def _re_outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re[u @ v] for u (nx,) or (nx, n) and v (np,) or (n, np), as one
    real GEMM [Re u, -Im u] @ [Re v; Im v]; a 1-D pair is the rank-1
    outer product, much faster than np.outer."""
    return np.column_stack([u.real, -u.imag]) @ np.vstack([v.real, v.imag])


def w_int_mean(params: ModelParams, alpha: float, phi: float, ts: np.ndarray,
               grid: WignerGrid) -> WignerGrid:
    """Mean of the closed-form interference term (see :func:`w_int_closed`)
    over the times ``ts``:

        Re[FX^T diag(c) FP] / n,  c_i = (2/pi) e^{i offset(t_i)},

    with FX, FP the stacks of :func:`_fringe_factors`.  The times go in
    blocks of 32, each one real GEMM [Re, -Im] @ [Re; Im] of inner size
    64 added into the sum, so the factor stacks stay small next to the
    grid."""
    ts = np.asarray(ts, dtype=np.float64).ravel()
    if ts.size == 0:
        raise DomainError("need at least one time to average over")
    total = np.zeros((grid.nx, grid.np))
    for i0 in range(0, ts.size, _TIME_BLOCK):
        block = ts[i0:i0 + _TIME_BLOCK]
        fx, fp = _fringe_factors(params, alpha, phi, block, grid)
        c = (2.0 / math.pi) * np.exp(1j * interference_phase_offset(params, alpha, phi, block))
        total += _re_outer((c[:, None] * fx).T, fp)
    total /= ts.size
    return grid.with_values(total)


def w_int_closed(params: ModelParams, alpha: float, phi: float, t: float,
                 grid: WignerGrid) -> WignerGrid:
    """Closed-form interference term of the leading-order evolved cat,
    without the cat normalization factor:

        (2/pi) exp[-(x-xb)^2 - (p-pb)^2]
             * cos[2 sqrt2 a sin(phi) (p sin t - x cos t) + offset]

    centered on the branch midpoint m = beta' + a cos(phi) e^{-i t}
    (xb = sqrt2 Re m, pb = sqrt2 Im m), with ``offset`` from
    interference_phase_offset.  The one-time case of :func:`w_int_mean`:
    Re[c fx (x) fp] with c = (2/pi) e^{i offset} and the 1-D factors of
    :func:`_fringe_factors`, one rank-2 real GEMM."""
    return w_int_mean(params, alpha, phi, np.array([t]), grid)


def _fit_offset(values: np.ndarray, fx: np.ndarray, fp: np.ndarray) -> float:
    """The least-squares fringe phase c of ``values`` ~ Re[e^{ic} G] with
    G = (2/pi) fx (x) fp, in (-pi, pi].

    The bases are Re G and -Im G.  With gx = (2/pi) fx = a + i a' and
    fp = b + i b', their 2x2 Gram matrix is a sum of products of 1-D sums,
    e.g. sum (Re G)^2 = sum a^2 sum b^2 - 2 sum aa' sum bb' + sum a'^2
    sum b'^2, and the right-hand side comes from one product values @
    [b, b'].  Written in real and imaginary parts, real factors (no
    fringes) give a determinant of exactly 0, which raises DomainError."""
    gx = (2.0 / math.pi) * fx
    a, ai, b, bi = gx.real, gx.imag, fp.real, fp.imag
    xx, xy, yy = a @ a, a @ ai, ai @ ai
    pp, pq, qq = b @ b, b @ bi, bi @ bi
    g11 = xx * pp - 2.0 * xy * pq + yy * qq
    g22 = xx * qq + 2.0 * xy * pq + yy * pp
    g12 = (yy - xx) * pq - xy * (pp - qq)
    m = values @ np.column_stack([b, bi])
    r1 = a @ m[:, 0] - ai @ m[:, 1]
    r2 = -(a @ m[:, 1] + ai @ m[:, 0])
    det = g11 * g22 - g12 * g12
    if det <= 0 or not np.isfinite(det):
        raise DomainError("fringe geometry is degenerate; cannot fit a phase")
    u = (g22 * r1 - g12 * r2) / det
    v = (g11 * r2 - g12 * r1) / det
    return math.atan2(v, u)


def fit_interference_offset(grid: WignerGrid, params: ModelParams, alpha: float,
                            phi: float, t: float) -> float:
    """Recover the constant fringe phase from an interference grid by
    envelope-weighted least squares against the known linear part.
    Returns the principal value in (-pi, pi]."""
    fx, fp = _fringe_factors(params, alpha, phi, [t], grid)
    return _fit_offset(grid.values, fx[0], fp[0])


def _fringe_rows(params: ModelParams, alpha: float, phi: float, ts: np.ndarray,
                 grid: WignerGrid) -> list[tuple[float, float, float]]:
    """(sup|W_int|, closed offset, fitted offset) of the closed interference
    term at each time in ``ts``: the values of w_int_closed(...).sup_norm(),
    interference_phase_offset and fit_interference_offset on that grid,
    from one factor stack and one rank-2 product per time."""
    ts = np.asarray(ts, dtype=np.float64).ravel()
    fx, fp = _fringe_factors(params, alpha, phi, ts, grid)
    offsets = interference_phase_offset(params, alpha, phi, ts)
    c = (2.0 / math.pi) * np.exp(1j * offsets)
    rows = []
    for ci, fxi, fpi, offset in zip(c, fx, fp, offsets.tolist()):
        w = _re_outer(ci * fxi, fpi)
        rows.append((max(float(w.max()), -float(w.min())), offset,
                     _fit_offset(w, fxi, fpi)))
    return rows


def count_time_zero_crossings(params: ModelParams, alpha: float, phi: float) -> int:
    """Zero crossings of the central fringe cos(offset(t)) over one field
    period; grows linearly with N at fixed coupling ratio.  offset(t) =
    A + B (1 - cos t) sweeps the open interval between its values at t = 0
    and t = pi twice, so each level (k + 1/2) pi strictly inside it is
    crossed twice; a level at an end is only touched."""
    lo, hi = sorted(interference_phase_offset(params, alpha, phi, np.array([0.0, math.pi])))
    levels = math.ceil(hi / math.pi - 0.5) - math.floor(lo / math.pi - 0.5) - 1
    return 2 * max(levels, 0)


@dataclass(frozen=True)
class TimeAverageReport:
    """Outcome of the convergence-by-doubling loop."""

    n_samples: int
    doublings: int
    max_change: float
    converged: bool


def time_average(
    evaluator: Callable[[np.ndarray], "WignerGrid | np.ndarray | float"],
    window: tuple[float, float],
) -> tuple["WignerGrid | np.ndarray", TimeAverageReport]:
    """Uniform finite-window average of a time-dependent grid (or plain
    array/scalar signal), the operational stand-in for a summability
    limit of the oscillating interference term.

    The evaluator takes the array of n midpoint times t0 + (i + 1/2)
    (t1 - t0)/n and returns the mean of the signal over them, as a grid,
    an array or a scalar (:func:`w_int_mean` is the one for the
    interference term).  An array or scalar result is copied at once, so
    an evaluator may hand back one buffer each time without aliasing the
    two means being compared; a grid owns a read-only copy of its values
    already, and the last one evaluated is returned as it is.

    Starts from 64 midpoint samples and doubles the count until the
    pointwise change drops below 1e-4; after 4 doublings without
    convergence the result is returned flagged rather than raised, so
    sweeps can report partial data.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got {window}")

    def mean(n: int) -> tuple[np.ndarray, Any]:  # and the result, for its geometry
        h = (t1 - t0) / n  # midpoint sampling: exact for full periods of trig signals
        got = evaluator(t0 + (np.arange(n) + 0.5) * h)
        if isinstance(got, WignerGrid):
            return got.values, got
        return np.array(got, dtype=np.float64), got

    n, doublings = 64, 0
    current, got = mean(n)
    max_change, converged = math.inf, False
    while doublings < 4 and not converged:
        n *= 2
        doublings += 1
        refined, got = mean(n)
        max_change = float(np.max(np.abs(refined - current)))
        current, converged = refined, max_change < 1e-4
    report = TimeAverageReport(n_samples=n, doublings=doublings,
                               max_change=max_change, converged=converged)
    if isinstance(got, WignerGrid):
        return got, report
    return current[()], report  # a 0-d mean comes back as a scalar


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
    float64 bounds) still load, with their float32 bounds; trailing bytes
    are rejected."""
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
        size = nx * npts * 8  # checked before reading: a header may claim ~1e20 bytes
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValidationError(f"{path}: truncated WGRD payload")
        data = np.frombuffer(fh.read(size), dtype="<f8")
        if fh.read(1):
            raise ValidationError(f"{path}: bytes after the WGRD payload")
    try:
        return WignerGrid(*bounds, nx, npts, data.reshape(nx, npts))
    except ValidationError as exc:  # values or axes the grid itself refuses
        raise ValidationError(f"{path}: {exc}") from exc


def save_csv(grid: WignerGrid, path) -> None:
    """Three-column x,p,W rows, x-major, '.' decimals, LF endings; every
    number in %.17g, so each float64 reads back exactly.  Each x-row of
    the grid is one '%' format, "x,p_0,%.17g\\nx,p_1,%.17g\\n...", applied
    to the row's values at once; rows become Python floats one at a time,
    so the whole grid never does."""
    cells = [f"{p:.17g},%.17g\n" for p in grid.p_axis.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,p,W\n")
        for x, row in zip(grid.x_axis.tolist(), grid.values):
            xc = f"{x:.17g},"
            fh.write((xc + xc.join(cells)) % tuple(row.tolist()))


def load_csv(path) -> WignerGrid:
    """Read a :func:`save_csv` file; rows off its x-major uniform grid are
    rejected, and every rejection names the path."""
    try:
        with open(path, encoding="utf-8") as f:
            rows = f.read().splitlines()[1:]
        if not any(row.strip() for row in rows):
            raise ValidationError(f"{path}: no x,p,W rows")
        data = np.loadtxt(rows, delimiter=",")
    except ValueError as exc:  # a non-numeric cell or a row of another length
        raise ValidationError(f"{path}: unreadable x,p,W rows: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValidationError(f"{path}: expected x,p,W columns")
    xs = np.unique(data[:, 0])
    ps = np.unique(data[:, 1])
    nx, npts = xs.size, ps.size
    if nx * npts != data.shape[0]:
        raise ValidationError(f"{path}: grid is not rectangular")
    try:
        grid = WignerGrid(float(xs[0]), float(xs[-1]), float(ps[0]), float(ps[-1]),
                          nx, npts, data[:, 2].reshape(nx, npts))
    except ValidationError as exc:  # values or axes the grid itself refuses
        raise ValidationError(f"{path}: {exc}") from exc
    if not (np.array_equal(data[:, 0], np.repeat(grid.x_axis, npts))
            and np.array_equal(data[:, 1], np.tile(grid.p_axis, nx))):
        raise ValidationError(f"{path}: x,p columns are not an x-major uniform grid")
    return grid
