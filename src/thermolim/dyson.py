"""Dyson-series correction terms for the splitting perturbation.

Treating the Delta/2 sigma-z sum as the perturbation on top of the
sector propagators U_m (see :mod:`propagator`), a single flip out of the
extremal sector carries collective weight sqrt(N) and lands in the
m = N-2 sector.  With V = (Delta/2) sqrt(N) (Delta and t mean
Delta/omega and omega t), the first-order correction (reaching the
orthogonal collective state) and the second-order return amplitude (back
on the original one) are

    c1(t) = -i int_0^t U_{N-2}(t-s) V U_N(s) psi0 ds,
    c2(t) = -int_0^t int_0^s U_N(t-s) V U_{N-2}(s-r) V U_N(r) psi0 dr ds.

Interaction frame.  The two sector propagators differ by a phase and a
displacement,

    U_{N-2}(s)^dag U_N(s) = e^{i Theta(s)} D[b(s)],
    Theta(s) = c (s - sin s),  c = 4 (N-1) g^2,  b(s) = 2g (1 - e^{is}),

so with F(t) = int_0^t e^{i Theta} D[b] psi0 ds

    c1(t) = -i V U_{N-2}(t) F(t),
    c2(t) = -V^2 U_N(t) int_0^t e^{-i Theta(s)} D[b(s)]^dag F(s) ds.

|b| <= 4g, so F and the second-order integrand live on the support of
psi0 plus the levels a displacement of 4g reaches from it, whatever N
is: N enters only through c.  The ladder is that support (the last level
whose suffix norm is >= 1e-16) plus that reach, and U_m(t) maps the
result back to the caller's cutoff with one (ncut+1) x L block of
displacement elements (:func:`propagator._sector_map`) per record an
entry returns (on a grid: the first order at every time, the second at t).

Factorised displacement.  D[b(s)] = e^{-i 4g^2 sin s} D[2g] e^{isn}
D[-2g] e^{-isn}, and D[-2g] = D[2g]^T is real, so at the M nodes
s_j = 2 pi j / M every application is a real GEMM with the one matrix
D[2g] plus diagonal phases (the first one an FFT over the levels).

Fourier sums.  G(s) = e^{-ic sin s} D[b(s)] psi0 is 2 pi-periodic; its
M-point FFT gives coefficients a_l, and F(t) = sum_l a_l E(c + l, t)
with E(w, t) = int_0^t e^{iws} ds = t e^{iwt/2} sinc(wt / 2 pi), exact
for any t.  Writing F(s) = sum_l a_l (e^{i(c+l)s} - 1) / (i(c+l)), the
second-order integrand is a periodic part plus e^{-ics} times a
periodic part; two more FFTs make it E sums at l and at l - c.  Every
grid time is one more row of E.

Resonance.  The split never divides by |c + l| < 1/2: at most one l
comes that close, and c at or near an integer (N = 1; N = 2 with
g = 1/2; N = 5 with g = 1/4) puts it at or near zero.  That term is kept
out of the split and integrated in closed form,

    int_0^t e^{i mu s} int_0^s e^{iwr} dr ds = t^2 exp[0, i mu t, i(mu+w) t],

a second divided difference of exp that stays finite as w -> 0.

Checks.  Both orders come from a coarse pass (M nodes, L levels) and a
fine pass (2M nodes, L + pad levels); the fine pass is returned and its
relative change from the coarse one, per grid time and order, is the
error estimate.  Records above the 1e-8 bar come back flagged rather
than raised, so parameter sweeps keep partial results.  Non-finite
output, or a Fourier coefficient at the window edge l = M/2 above
1e-14 of the largest, raises ``QuadratureError``: that edge is FFT
rounding when the window is wide enough (1.4e-16 of the largest at
N = 16, g = 0.3), so a 1e-16 bar would trip on rounding alone.  The fine pass
must keep its small-ladder tail below the cutoff budget, and the
lab-frame field its own, else ``CutoffError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .errors import DomainError, QuadratureError
from .fock import (
    TAIL_TOL,
    FieldState,
    ModelParams,
    _bessel_window,
    _displacement_elements,
    _support,
)
from .propagator import _sector_map

__all__ = [
    "CorrectionRecord",
    "oscillatory_integral",
    "corrections_on_grid",
    "first_order_correction",
    "second_order_correction",
    "scaling_fit",
]

_REL_TOL = 1e-8
_SUPPORT_TOL = 1e-16  # suffix norm that ends the support of psi0
_REACH_TOL = 1e-16    # amplitude a displacement may leave above the ladder
_EDGE_TOL = 1e-14     # window-edge Fourier coefficient, relative to the largest
_BLOCK = 16           # Fock levels per streamed GEMM and FFT


@dataclass(frozen=True)
class CorrectionRecord:
    """One evaluated correction term.

    ``field_correction`` is unnormalized; its norm is the amplitude
    reaching chi' (first order) or returning to chi (second order)."""

    amplitude_norm: float
    field_correction: FieldState
    diagnostics: dict
    converged: bool


def oscillatory_integral(params: ModelParams, t: float) -> complex:
    """int_0^t exp(i Theta(t')) dt', Theta = c (t' - sin t') with
    c = 4 (N-1) g^2, as a closed Bessel sum.

    The Jacobi-Anger expansion exp(-i c sin x) = sum_n J_n(c) exp(-i n x)
    (Abramowitz & Stegun 9.1.41) integrates term by term to

        t sum_n J_n(c) exp(i theta_n / 2) sinc(theta_n / 2 pi),
        theta_n = (c - n) t,

    summed over |n| <= m = ceil(c + 30 + 10 c^(1/3)).  The sum is exact
    at t = 0 and at c = 0.  A non-finite sum, or a window edge |J_m(c)|
    above 1e-16, raises ``QuadratureError``."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    c = 4.0 * (params.n_atoms - 1) * params.g ** 2
    m = _bessel_window(c)
    n = np.arange(-m, m + 1)
    bessel = jv(n, c)
    result = complex(np.sum(bessel * _exp_integral(c - n, t)))
    edge = max(abs(bessel[0]), abs(bessel[-1]))
    if not (np.isfinite(result) and edge <= 1e-16):
        raise QuadratureError(
            f"oscillatory integral: sum {result} with Bessel window edge "
            f"|J_{m}({c:.6g})| = {edge:.3e}")
    return result


def _reach(alpha: float, k: int) -> int:
    """Levels above |k> that D[alpha]|k> reaches: the first j at which the
    leading term |alpha|^j sqrt((k+j)!/k!) / j! of <k+j|D|k> falls below
    1e-16."""
    if alpha == 0:
        return 0
    j, floor = 1, math.log(_REACH_TOL)
    while (j * math.log(alpha) + 0.5 * (math.lgamma(k + j + 1) - math.lgamma(k + 1))
           - math.lgamma(j + 1)) >= floor:
        j += 1
    return j


def _nodes(params: ModelParams, support: int, levels: int) -> int:
    """FFT nodes per period of the coarse pass: a power of two covering
    twice the band of G, the Bessel band of e^{-i(c + 4g^2) sin s} plus
    the frequencies the displacement D[2g e^{is}] adds, and at least
    ``levels``."""
    cp = 4.0 * params.n_atoms * params.g ** 2
    n = np.arange(math.ceil(cp), _bessel_window(cp) + 1)
    bessel = n[np.flatnonzero(np.abs(jv(n, cp)) <= _REACH_TOL)[0]]
    band = int(bessel) + _reach(2.0 * params.g, support)
    return 1 << (max(2 * band, levels) - 1).bit_length()


def _exp_integral(w, t):
    """E(w, t) = int_0^t e^{iws} ds = t e^{iwt/2} sinc(wt / 2 pi), broadcast
    over w and t; exact at w = 0 and at t = 0."""
    wt = w * t
    return t * np.exp(0.5j * wt) * np.sinc(wt / (2 * math.pi))


def _exp_divided_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """exp[0, ix, iy] for real x and y: the Taylor series sum_k h_k/(k+2)!
    of the complete homogeneous polynomials h_k(ix, iy) when the three
    nodes lie within 1 of each other, else the difference quotient whose
    divisor is the widest gap between them."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))

    gaps = np.stack([np.abs(x - y), np.abs(y), np.abs(x)])
    widest = np.argmax(gaps, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.choose(widest, [
            (_exp_integral(y, 1.0) - _exp_integral(x, 1.0)) / (1j * (y - x)),
            (np.exp(1j * x) * _exp_integral(y - x, 1.0) - _exp_integral(x, 1.0)) / (1j * y),
            (np.exp(1j * y) * _exp_integral(x - y, 1.0) - _exp_integral(y, 1.0)) / (1j * x)])
    a, b = 1j * x, 1j * y
    h, power, series, fact = np.ones_like(a), np.ones_like(a), 0.5 * np.ones_like(a), 2.0
    for k in range(1, 22):  # terms below (k+1)/(k+2)! < 1e-20 at the cut
        power = power * b
        h = power + a * h
        fact *= k + 2
        series = series + h / fact
    return np.where(gaps.max(axis=0) <= 1.0, series, quotient)


def _interaction_pass(params: ModelParams, psi: np.ndarray, nodes: int,
                      times: np.ndarray, order: int) -> list[np.ndarray]:
    """F(t_k) and, for ``order`` 2, the second-order integral I(t_k) on the
    ladder of ``psi`` (levels 0..psi.size-1), from ``nodes`` FFT nodes per
    period; each is an array with one row per grid time."""
    g, m, levels = params.g, nodes, psi.size
    c = 4.0 * (params.n_atoms - 1) * g * g
    freq = np.fft.fftfreq(m, 1.0 / m)
    s = 2 * math.pi * np.arange(m) / m
    roots, jj = np.exp(1j * s), np.arange(m)
    chirp = np.exp(-1j * (c + 4 * g * g) * np.sin(s))  # e^{-i(c + 4g^2) sin s}
    idx = np.arange(levels)
    blocks = [slice(lo, min(lo + _BLOCK, levels)) for lo in range(0, levels, _BLOCK)]
    # D[2g], real; D[-2g] is its transpose
    disp = _displacement_elements(idx[:, None], idx, 2.0 * g).real
    edges = {}  # per order: largest window-edge and largest coefficient

    def rotate(x, sign, rows):  # row n of x times e^{sign i n s_j}
        x *= roots[(sign * idx[rows, None] * jj) % m]

    def coefficients(x, phase, j):  # Fourier coefficients of x * phase, order j
        x *= phase
        a = np.fft.fft(x, axis=1, norm="forward")
        seen = edges.setdefault(j, [0.0, 0.0])
        seen[0] = max(seen[0], np.abs(a[:, m // 2]).max())
        seen[1] = max(seen[1], np.abs(a).max())
        return a

    # D[-2g] e^{-isn} psi at every node is one FFT over n, then e^{isn}
    y = np.empty((levels, m), complex)
    for rows in blocks:
        y[rows] = np.fft.fft(disp[:, rows].T * psi, n=m, axis=1)
        rotate(y[rows], 1, rows)
    yv = y.view(np.float64)
    tcol = times[:, None]
    first = np.empty((times.size, levels), complex)
    kernel = _exp_integral(c + freq, tcol)
    if order == 2:
        resonant = np.abs(c + freq) < 0.5
        split = np.divide(1.0, 1j * (c + freq), out=np.zeros(m, complex),
                          where=~resonant)
        pv = np.empty((levels, m), complex)  # P(s_j)
        p0, r = np.empty(levels, complex), np.empty(levels, complex)
    for rows in blocks:
        a = coefficients((disp[rows] @ yv).view(np.complex128), chirp, 1)
        first[:, rows] = kernel @ a.T
        if order == 2:
            p0[rows] = a @ split
            r[rows] = a[:, resonant].sum(axis=1)
            pv[rows] = np.fft.ifft(a * split, axis=1, norm="forward")
    del y, yv
    out = [first]
    if order == 2:
        # periodic part: e^{ic' sin s} e^{isn} D[2g] e^{-isn} D[-2g] P(s)
        w = np.empty((levels, 2 * m))
        for rows in blocks:
            w[rows] = disp[:, rows].T @ pv.view(np.float64)
            rotate(w[rows].view(np.complex128), -1, rows)
        del pv
        second = np.zeros_like(first)
        kernel = _exp_integral(freq, tcol)
        for rows in blocks:
            h = (disp[rows] @ w).view(np.complex128)
            rotate(h, 1, rows)
            second[:, rows] = kernel @ coefficients(h, chirp.conj(), 2).T
        del w
        # e^{-ics} times the same map of the constants p0 and r
        kernels = [-_exp_integral(freq - c, tcol)]
        vectors = [p0]
        if resonant.any():
            mu = freq - c
            wres = c + freq[resonant][0]
            kernels.append(tcol ** 2 * _exp_divided_difference(tcol * mu,
                                                               tcol * (mu + wres)))
            vectors.append(r)
        for vec, kern in zip((disp.T @ np.stack(vectors, axis=1)).T, kernels):
            for rows in blocks:
                h = np.fft.fft(disp[rows] * vec, n=m, axis=1)
                rotate(h, 1, rows)
                second[:, rows] += kern @ coefficients(h, chirp.conj(), 2).T
        out.append(second)
    edge = max((e / p for e, p in edges.values() if p > 0), default=0.0)
    if not edge <= _EDGE_TOL:
        raise QuadratureError(
            f"Fourier window of {m} nodes too short: edge coefficient "
            f"{edge:.3e} of the largest, above {_EDGE_TOL:.0e}")
    return out


def _zero_record(ncut: int) -> CorrectionRecord:
    zero = FieldState(np.zeros(ncut + 1, complex), normalized=False)
    return CorrectionRecord(amplitude_norm=0.0, field_correction=zero,
                            diagnostics={"nodes": 0, "error_estimate": 0.0},
                            converged=True)


def _corrections(order: int, params: ModelParams, t: float, steps: int,
                 initial: FieldState, firsts: range
                 ) -> tuple[list[CorrectionRecord], CorrectionRecord | None]:
    """First-order records at t_k = k t / steps for k in ``firsts``, and
    for ``order`` 2 the second-order record at t (else None); only these
    fields are mapped back to the lab frame."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    ncut = initial.ncut
    if params.delta == 0 or t == 0:
        return [_zero_record(ncut)] * len(firsts), _zero_record(ncut) if order == 2 else None
    support = _support(initial.amplitudes, _SUPPORT_TOL)
    levels = support + 1 + _reach(4.0 * params.g, support)
    pad = max(8, levels // 4)
    nodes = _nodes(params, support, levels + pad)
    times = np.linspace(0.0, t, steps + 1)
    psi = np.zeros(levels + pad, complex)
    psi[: support + 1] = initial.amplitudes[: support + 1]
    coarse = _interaction_pass(params, psi[:levels], nodes, times, order)
    fine = _interaction_pass(params, psi, 2 * nodes, times, order)
    v = (params.delta / 2.0) * math.sqrt(params.n_atoms)
    records = []
    for j, (lo, hi) in enumerate(zip(coarse, fine), start=1):
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise QuadratureError(f"order-{j} correction produced non-finite values")
        size = np.linalg.norm(hi, axis=1)
        change = np.linalg.norm(hi - np.pad(lo, ((0, 0), (0, pad))), axis=1)
        err = change / np.maximum(size, 1e-300)
        for row, norm in zip(hi, size):
            FieldState(row, normalized=False).require_tail(TAIL_TOL * norm ** 2)
        sector, scale = (params.n_atoms - 2, -1j * v) if j == 1 else (params.n_atoms, -v * v)
        row_records = []
        for k in firsts if j == 1 else [steps]:
            amps = scale * _sector_map(hi[k], sector, params, times[k], ncut)
            field = FieldState(amps, normalized=False).require_tail()
            e = float(err[k])
            row_records.append(CorrectionRecord(
                amplitude_norm=float(np.linalg.norm(amps)), field_correction=field,
                diagnostics={"nodes": 2 * nodes, "error_estimate": e},
                converged=e <= _REL_TOL))
        records.append(row_records)
    return records[0], records[1][0] if order == 2 else None


def corrections_on_grid(params: ModelParams, t: float, steps: int,
                        initial_field: FieldState
                        ) -> tuple[list[CorrectionRecord], CorrectionRecord]:
    """First-order records at t_k = k t / steps, k = 0..steps, and the
    second-order record at t, all read off one coarse and one fine pass
    of Fourier sums.  Only these steps + 2 fields are mapped back to the
    lab frame."""
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    return _corrections(2, params, t, steps, initial_field, range(steps + 1))


def first_order_correction(params: ModelParams, t: float,
                           initial_field: FieldState) -> CorrectionRecord:
    """Single-flip correction amplitude into the orthogonal collective
    sector: -i int_0^t U_{N-2}(t-s) V U_N(s) ds applied to the initial
    field."""
    return _corrections(1, params, t, 1, initial_field, range(1, 2))[0][0]


def second_order_correction(params: ModelParams, t: float,
                            initial_field: FieldState) -> CorrectionRecord:
    """Flip-and-return correction on the original collective sector:
    the time-ordered double integral over 0 <= r <= s <= t of
    -U_N(t-s) V U_{N-2}(s-r) V U_N(r) applied to the initial field."""
    return _corrections(2, params, t, 1, initial_field, range(0))[1]


def scaling_fit(points) -> dict:
    """Log-log least squares of amplitude vs N: {exponent, r_squared}."""
    pts = [(float(n), float(a)) for n, a in points]
    if len(pts) < 4:
        raise DomainError(f"need at least 4 points, got {len(pts)}")
    if any(a <= 0 for _, a in pts):
        raise DomainError("scaling fit needs strictly positive amplitudes")
    logn = np.log([n for n, _ in pts])
    loga = np.log([a for _, a in pts])
    slope, intercept = np.polyfit(logn, loga, 1)
    resid = loga - (slope * logn + intercept)
    ss_tot = float(np.sum((loga - loga.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"exponent": float(slope), "r_squared": r2}
