"""Dyson-series correction terms for the splitting perturbation.

Treating the Delta/2 sigma-z sum as the perturbation on top of the
sector propagators, a single flip out of the extremal sector carries
collective weight sqrt(N) and lands in the m = N-2 sector.  With
V = (Delta/2) sqrt(N) and H_m the sector Hamiltonian, the first-order
correction (reaching the orthogonal collective state) and the
second-order return amplitude (back on the original one) are

    -i   int_0^t U_{N-2}(t-s) V U_N(s) psi0 ds,
    (-i)^2 int_0^t int_0^s U_N(t-s) V U_{N-2}(s-r) V U_N(r) psi0 dr ds.

Both are exactly the top-right block of one exponential of a block
upper-triangular matrix (C. Van Loan, IEEE TAC 23, 395, 1978):

    exp(-it [[H_{N-2}, V], [0, H_N]])                      first order,
    exp(-it [[H_N, V, 0], [0, H_{N-2}, V], [0, 0, H_N]])   second order,

applied to (0, ..., 0, psi0).  The truncated H_m reflects amplitude at
the top of its Fock ladder, so the blocks live on a ladder padded above
the caller's cutoff and the result is sliced back.  The error estimate
is the relative change between one whole step at pad P and two half
steps at pad 2P.  Records that fail the 1e-8 bar come back flagged
rather than raised, so parameter sweeps can keep partial results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse as sp

from .errors import DomainError, QuadratureError
from .evolver import EXPM_CALLS, expm_checked, sector_hamiltonian
from .fock import FieldState, ModelParams

__all__ = [
    "CorrectionRecord",
    "oscillatory_integral",
    "first_order_correction",
    "second_order_correction",
    "scaling_fit",
]

_REL_TOL = 1e-8


@dataclass(frozen=True)
class CorrectionRecord:
    """One evaluated correction term.

    ``field_correction`` is unnormalized; its norm is the amplitude
    reaching the target collective sector at this order."""

    order: int
    target: str  # "chi" or "chi_prime"
    t: float
    params: ModelParams
    amplitude_norm: float
    field_correction: FieldState
    diagnostics: dict
    converged: bool


def _theta(params: ModelParams, tp: float) -> float:
    wt = params.omega * tp
    return 4.0 * (params.n_atoms - 1) * (params.g / params.omega) ** 2 \
        * (wt - math.sin(wt))


def oscillatory_integral(params: ModelParams, t: float) -> complex:
    """int_0^t exp(i Theta(t')) dt' to 1e-8 relative accuracy.

    The phase is stationary at every field revival (omega t' = 2 pi m,
    where it vanishes to third order), so the large-N decay of this
    integral is slower near those points than the naive 1/N estimate;
    the quadrature itself stays adaptive and makes no asymptotic
    assumption."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    if t == 0:
        return 0.0 + 0.0j
    if (params.n_atoms - 1) * params.g == 0:
        return complex(t)  # integrand identically 1
    re, re_err = scipy.integrate.quad(
        lambda tp: math.cos(_theta(params, tp)), 0.0, t,
        epsabs=1e-12, epsrel=1e-10, limit=800)
    im, im_err = scipy.integrate.quad(
        lambda tp: math.sin(_theta(params, tp)), 0.0, t,
        epsabs=1e-12, epsrel=1e-10, limit=800)
    result = complex(re, im)
    err = re_err + im_err
    if not (err <= _REL_TOL * max(abs(result), 1e-6)):
        raise QuadratureError(
            f"oscillatory integral error estimate {err:.3e} too large "
            f"for |result| = {abs(result):.3e}")
    return result


def _fock_pad(ncut: int) -> int:
    """Levels added above ``ncut`` for the block exponential: two widths
    of the band the tail check watches, so that amplitude reflected at
    the top of the padded ladder stays out of the levels read back."""
    return 2 * max(8, ncut // 10)


def _van_loan(params: ModelParams, order: int, initial: FieldState,
              ncut: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """Block matrix and input vector of the order-``order`` correction on
    Fock levels 0..ncut; the wanted block comes out first."""
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


def _zero_record(order: int, target: str, params: ModelParams, t: float,
                 ncut: int) -> CorrectionRecord:
    zero = FieldState(np.zeros(ncut + 1, complex), normalized=False)
    return CorrectionRecord(order=order, target=target, t=t, params=params,
                            amplitude_norm=0.0, field_correction=zero,
                            diagnostics={"nodes": 0, "error_estimate": 0.0},
                            converged=True)


def _correction(order: int, target: str, params: ModelParams, t: float,
                initial: FieldState) -> CorrectionRecord:
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    ncut = initial.ncut
    if params.delta == 0 or t == 0:
        return _zero_record(order, target, params, t, ncut)
    pad = _fock_pad(ncut)
    fine = ncut + 2 * pad
    amps, err = expm_checked(t, _van_loan(params, order, initial, ncut + pad),
                             _van_loan(params, order, initial, fine),
                             keep=ncut + 1, unitary=fine + 1)
    if not np.all(np.isfinite(amps)):
        raise QuadratureError(f"order-{order} correction produced non-finite values")
    field = FieldState(amps, normalized=False).require_tail()
    return CorrectionRecord(
        order=order, target=target, t=t, params=params,
        amplitude_norm=float(np.linalg.norm(amps)), field_correction=field,
        diagnostics={"nodes": EXPM_CALLS, "error_estimate": err},
        converged=err <= _REL_TOL)


def first_order_correction(params: ModelParams, t: float,
                           initial_field: FieldState) -> CorrectionRecord:
    """Single-flip correction amplitude into the orthogonal collective
    sector: -i int_0^t U_{N-2}(t-s) V U_N(s) ds applied to the initial
    field."""
    return _correction(1, "chi_prime", params, t, initial_field)


def second_order_correction(params: ModelParams, t: float,
                            initial_field: FieldState) -> CorrectionRecord:
    """Flip-and-return correction on the original collective sector:
    the time-ordered double integral over 0 <= r <= s <= t of
    -U_N(t-s) V U_{N-2}(s-r) V U_N(r) applied to the initial field."""
    return _correction(2, "chi", params, t, initial_field)


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
