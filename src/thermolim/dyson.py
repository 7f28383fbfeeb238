"""Dyson-series correction terms for the splitting perturbation.

Treating the Delta/2 sigma-z sum as the perturbation on top of the
sector propagators, a single flip out of the extremal sector carries
collective weight sqrt(N) and lands in the m = N-2 sector.  With
V = (Delta/2) sqrt(N) and H_m the sector Hamiltonian (Delta and t mean
Delta/omega and omega t), the first-order correction (reaching the
orthogonal collective state) and the second-order return amplitude
(back on the original one) are

    -i   int_0^t U_{N-2}(t-s) V U_N(s) psi0 ds,
    (-i)^2 int_0^t int_0^s U_N(t-s) V U_{N-2}(s-r) V U_N(r) psi0 dr ds.

Both are exactly the top-right block of one exponential of a block
upper-triangular matrix (C. Van Loan, IEEE TAC 23, 395, 1978):

    exp(-it [[H_{N-2}, V], [0, H_N]])                      first order,
    exp(-it [[H_N, V, 0], [0, H_{N-2}, V], [0, 0, H_N]])   second order,

applied to (0, ..., 0, psi0).  The trailing 2x2 block of the second
matrix is the first, so its middle block is exactly the first order:
one exponential of the second-order matrix, stepped over an evenly
spaced grid by :func:`evolver.expm_checked`, gives both orders at every
grid time (:func:`corrections_on_grid`).  The single-time entry points
use the same core; the first order alone builds the smaller matrix.

The truncated H_m reflects amplitude at the top of its Fock ladder, so
the blocks live on a ladder padded above the caller's cutoff and the
result is sliced back.  The error estimate, per grid point and order, is
the relative change between the grid at pad P and the grid with twice
the intervals at pad 2P.  Records that fail the 1e-8 bar come back
flagged rather than raised, so parameter sweeps can keep partial
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

from .errors import DomainError, QuadratureError
from .evolver import EXPM_CALLS, expm_checked, sector_hamiltonian
from .fock import FieldState, ModelParams

__all__ = [
    "CorrectionRecord",
    "oscillatory_integral",
    "corrections_on_grid",
    "first_order_correction",
    "second_order_correction",
    "scaling_fit",
]

_REL_TOL = 1e-8


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
    m = math.ceil(c + 30 + 10 * c ** (1 / 3))
    n = np.arange(-m, m + 1)
    bessel = jv(n, c)
    theta = (c - n) * t
    result = complex(t * np.sum(bessel * np.exp(0.5j * theta)
                                * np.sinc(theta / (2 * math.pi))))
    edge = max(abs(bessel[0]), abs(bessel[-1]))
    if not (np.isfinite(result) and edge <= 1e-16):
        raise QuadratureError(
            f"oscillatory integral: sum {result} with Bessel window edge "
            f"|J_{m}({c:.6g})| = {edge:.3e}")
    return result


def _fock_pad(ncut: int) -> int:
    """Levels added above ``ncut`` for the block exponential: two widths
    of the band the tail check watches, so that amplitude reflected at
    the top of the padded ladder stays out of the levels read back."""
    return 2 * max(8, ncut // 10)


def _van_loan(params: ModelParams, order: int, initial: FieldState,
              ncut: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Block matrix and input vector of the order-``order`` correction on
    Fock levels 0..ncut; block ``order - j`` comes out as the order-j
    correction, so the highest order is block 0."""
    n = params.n_atoms
    dim = ncut + 1
    flip = (params.delta / 2.0) * math.sqrt(n) * sp.identity(dim, format="csr")
    blocks = [[None] * (order + 1) for _ in range(order + 1)]
    for k in range(order + 1):
        # sectors alternate and end on the extremal one: N-2, N or N, N-2, N
        blocks[k][k] = sector_hamiltonian(params, n - 2 * ((order - k) % 2), ncut)
        if k:
            blocks[k - 1][k] = flip
    vec = np.zeros((order + 1) * dim, dtype=complex)
    vec[order * dim: order * dim + initial.ncut + 1] = initial.amplitudes
    return sp.bmat(blocks, format="csr"), vec


def _zero_record(ncut: int) -> CorrectionRecord:
    zero = FieldState(np.zeros(ncut + 1, complex), normalized=False)
    return CorrectionRecord(amplitude_norm=0.0, field_correction=zero,
                            diagnostics={"nodes": 0, "error_estimate": 0.0},
                            converged=True)


def _corrections(order: int, params: ModelParams, t: float, steps: int,
                 initial: FieldState) -> list[list[CorrectionRecord]]:
    """Records of every order 1..``order`` at t_k = k t / steps,
    k = 0..steps, from one checked exponential of the order-``order``
    block matrix: entry [j - 1][k] is order j at t_k.  Block ``order - j``
    of that matrix holds order j, since its trailing blocks are the
    lower-order matrices."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    ncut = initial.ncut
    if params.delta == 0 or t == 0:
        return [[_zero_record(ncut)] * (steps + 1) for _ in range(order)]
    pad = _fock_pad(ncut)
    fine = ncut + 2 * pad

    def rows(top):  # levels 0..ncut of every correction block on a ladder to ``top``
        return (top + 1) * np.arange(order)[:, None] + np.arange(ncut + 1)

    amps, err = expm_checked(t, _van_loan(params, order, initial, ncut + pad),
                             _van_loan(params, order, initial, fine), steps=steps,
                             keep=(rows(ncut + pad), rows(fine)), unitary=fine + 1)
    if not np.all(np.isfinite(amps)):
        raise QuadratureError(f"order-{order} correction produced non-finite values")

    def record(block, k):
        field = FieldState(amps[k, block], normalized=False).require_tail()
        e = float(err[k, block])
        return CorrectionRecord(
            amplitude_norm=float(np.linalg.norm(amps[k, block])), field_correction=field,
            diagnostics={"nodes": EXPM_CALLS, "error_estimate": e},
            converged=e <= _REL_TOL)

    return [[record(order - j, k) for k in range(steps + 1)]
            for j in range(1, order + 1)]


def corrections_on_grid(params: ModelParams, t: float, steps: int,
                        initial_field: FieldState
                        ) -> tuple[list[CorrectionRecord], list[CorrectionRecord]]:
    """First- and second-order records at t_k = k t / steps, k = 0..steps,
    both read off one order-2 block exponential stepped over the grid."""
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    return tuple(_corrections(2, params, t, steps, initial_field))


def first_order_correction(params: ModelParams, t: float,
                           initial_field: FieldState) -> CorrectionRecord:
    """Single-flip correction amplitude into the orthogonal collective
    sector: -i int_0^t U_{N-2}(t-s) V U_N(s) ds applied to the initial
    field."""
    return _corrections(1, params, t, 1, initial_field)[0][-1]


def second_order_correction(params: ModelParams, t: float,
                            initial_field: FieldState) -> CorrectionRecord:
    """Flip-and-return correction on the original collective sector:
    the time-ordered double integral over 0 <= r <= s <= t of
    -U_N(t-s) V U_{N-2}(s-r) V U_N(r) applied to the initial field."""
    return _corrections(2, params, t, 1, initial_field)[1][-1]


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
