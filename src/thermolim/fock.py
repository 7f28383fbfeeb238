"""Truncated-Fock-space states and displacement kernels.

Everything downstream (sector propagators, Wigner grids, perturbative
corrections) is built from the pieces here: coherent / cat / displaced
number states, matrix elements of the displacement operator
``D[a] = exp(a ad - conj(a) a)`` evaluated through a bounded associated-
Laguerre recurrence, and the cutoff policy that certifies tail mass.

All factorial ratios go through log-gamma and every displacement
magnitude is propagated in a form bounded by 1, so the kernels stay
finite for cutoffs in the hundreds and displacement arguments |a|^2 in
the thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import CutoffError, DomainError

__all__ = [
    "FieldState",
    "ModelParams",
    "assoc_laguerre",
    "displacement_matrix",
    "coherent_state",
    "displaced_number_state",
    "cat_state",
    "cat_norm_closed",
    "choose_cutoff",
    "overlap",
]

TAIL_TOL = 1e-8  # shared tail-mass budget for every constructed state


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model: mode frequency ``omega``, level
    splitting ``delta``, coupling ``g``, and atom count ``n_atoms``.

    Only the ratios delta/omega, g/omega and the product omega*t enter
    any formula, so the harness works in omega = 1 units by default.
    """

    omega: float
    delta: float
    g: float
    n_atoms: int

    def __post_init__(self):
        if not self.omega > 0:
            raise DomainError(f"omega must be > 0, got {self.omega}")
        if self.delta < 0:
            raise DomainError(f"delta must be >= 0, got {self.delta}")
        if self.g < 0:
            raise DomainError(f"g must be >= 0, got {self.g}")
        if int(self.n_atoms) != self.n_atoms or self.n_atoms < 1:
            raise DomainError(f"n_atoms must be an integer >= 1, got {self.n_atoms}")
        object.__setattr__(self, "n_atoms", int(self.n_atoms))


@dataclass(frozen=True)
class FieldState:
    """Complex amplitudes of the field mode over photon numbers 0..ncut.

    Immutable: the amplitude array is marked read-only at construction
    and may be shared freely across threads.  ``normalized`` declares
    unit norm (checked to 1e-10); projections and correction terms carry
    ``normalized=False``.
    """

    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise DomainError("amplitudes must be a nonempty 1-d sequence")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.normalized:
            total = float(np.sum(np.abs(amps) ** 2))
            if abs(total - 1.0) > 1e-10:
                raise DomainError(
                    f"state marked normalized but sum |c_n|^2 = {total!r}"
                )

    @property
    def ncut(self) -> int:
        return self.amplitudes.size - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tail_mass(self) -> float:
        """Probability above the safety band n > ncut - max(8, ncut/10)."""
        margin = max(8.0, self.ncut / 10.0)
        n = np.arange(self.ncut + 1)
        return float(np.sum(np.abs(self.amplitudes[n > self.ncut - margin]) ** 2))

    def require_tail(self, tol: float = TAIL_TOL) -> "FieldState":
        """Raise :class:`CutoffError` when the truncation band holds
        more than ``tol`` probability; return self otherwise."""
        tm = self.tail_mass()
        if tm > tol:
            raise CutoffError(
                f"tail mass {tm:.3e} exceeds {tol:.1e}; increase ncut={self.ncut}"
            )
        return self


def overlap(a: FieldState, b: FieldState) -> complex:
    """Inner product <a|b>; the shorter vector is zero-padded."""
    n = max(a.amplitudes.size, b.amplitudes.size)
    va = np.zeros(n, np.complex128)
    vb = np.zeros(n, np.complex128)
    va[: a.amplitudes.size] = a.amplitudes
    vb[: b.amplitudes.size] = b.amplitudes
    return complex(np.vdot(va, vb))


def assoc_laguerre(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^(k)(x) by the three-term
    recurrence in the degree.

    Exact for n = 0, 1; stable upward for x >= 0.  ``k`` may be any
    integer with n + k >= 0 (the polynomial is well defined there).
    """
    if n != int(n) or k != int(k):
        raise DomainError(f"n and k must be integers, got {(n, k)}")
    n, k = int(n), int(k)
    if n < 0 or n + k < 0:
        raise DomainError(f"need n >= 0 and n + k >= 0, got {(n, k)}")
    if x < 0:
        raise DomainError(f"need x >= 0, got {x}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + k - x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    return cur


def _scaled_diagonal(d: int, x, jmax: int) -> np.ndarray:
    """Magnitudes of the displacement diagonal n - k = d >= 0.

    Returns M[j] = exp(-x/2) x^(d/2) sqrt(j!/(j+d)!) L_j^(d)(x) for
    j = 0..jmax, vectorized over an array argument ``x = |a|^2``.  Each
    M[j] is a unitary matrix element in magnitude, so the recurrence is
    bounded by 1 and cannot overflow even for x in the thousands.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((jmax + 1,) + x.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):  # log(0) at grid points with x = 0
        logm0 = -0.5 * x + 0.5 * d * np.log(np.where(x > 0, x, 1.0)) \
            - 0.5 * math.lgamma(d + 1)
    m0 = np.exp(logm0)
    if d > 0:
        m0 = np.where(x > 0, m0, 0.0)
    out[0] = m0
    if jmax >= 1:
        out[1] = m0 * (1.0 + d - x) / math.sqrt(1 + d)
    for j in range(1, jmax):
        # scaled three-term recurrence; coefficients are O(1)
        a = (2 * j + 1 + d - x) / math.sqrt((j + 1) * (j + 1 + d))
        b = math.sqrt(j * (j + d) / ((j + 1) * (j + 1 + d)))
        out[j + 1] = a * out[j] - b * out[j - 1]
    return out


def displacement_matrix(ncut: int, alpha: complex) -> np.ndarray:
    """Dense (ncut+1) x (ncut+1) matrix of <n|D[alpha]|k>.

    Assembled diagonal by diagonal from the bounded recurrence; cost
    O(ncut^2).  The result is unitary up to truncation: the top rows
    and columns lose mass that escaped past the cutoff.
    """
    if ncut < 0:
        raise DomainError(f"need ncut >= 0, got {ncut}")
    alpha = complex(alpha)
    dim = ncut + 1
    if alpha == 0:
        return np.eye(dim, dtype=np.complex128)
    x = abs(alpha) ** 2
    theta = np.angle(alpha)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for d in range(dim):
        mags = _scaled_diagonal(d, x, ncut - d)
        upper = mags * np.exp(1j * d * theta)
        idx = np.arange(dim - d)
        out[idx + d, idx] = upper
        if d > 0:
            out[idx, idx + d] = (-1) ** d * np.conj(upper)
    return out


def coherent_state(alpha: complex, ncut: int) -> FieldState:
    """Coherent state |alpha> = D[alpha]|0> on the truncated ladder.

    Amplitudes exp(-|a|^2/2) a^n / sqrt(n!) evaluated in the log
    domain, then renormalized (truncation removes <= the tail budget).
    Raises :class:`CutoffError` when the cutoff cannot hold the state.
    """
    alpha = complex(alpha)
    if ncut < 0:
        raise DomainError(f"need ncut >= 0, got {ncut}")
    n = np.arange(ncut + 1)
    if alpha == 0:
        amps = np.zeros(ncut + 1, np.complex128)
        amps[0] = 1.0
        return FieldState(amps)
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) \
        - 0.5 * gammaln(n + 1)
    amps = np.exp(logmag + 1j * np.angle(alpha) * n)
    state = FieldState(amps / np.linalg.norm(amps))
    state.require_tail()
    return state


def displaced_number_state(k: int, alpha: complex, ncut: int) -> FieldState:
    """Displaced number state |k, alpha> = D[alpha]|k>.

    Amplitudes are column k of the displacement matrix.  ``k`` must fit
    under the cutoff; tail mass is certified like every constructed
    state.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"need integer k >= 0, got {k}")
    k = int(k)
    if k > ncut:
        raise DomainError(f"k={k} exceeds ncut={ncut}")
    col = displacement_matrix(ncut, alpha)[:, k]
    state = FieldState(col / np.linalg.norm(col))
    state.require_tail()
    return state


def cat_state(alpha: float, phi: float, ncut: int) -> tuple[FieldState, float]:
    """Normalized two-branch superposition of |alpha e^{i phi}> and
    |alpha e^{-i phi}>, plus the applied normalization factor.

    The factor is recomputed from the constructed truncated vector; its
    closed form 1/sqrt(2 + 2 cos(a^2 sin 2phi) exp(-2 a^2 sin^2 phi))
    serves as a cross-check in the tests, not as the applied value.
    """
    if alpha < 0:
        raise DomainError(f"need alpha >= 0, got {alpha}")
    up = coherent_state(alpha * np.exp(1j * phi), ncut)
    dn = coherent_state(alpha * np.exp(-1j * phi), ncut)
    raw = up.amplitudes + dn.amplitudes
    norm = float(np.linalg.norm(raw))
    if norm == 0:
        raise CutoffError("cat branches cancelled to zero; cutoff unusable")
    state = FieldState(raw / norm)
    state.require_tail()
    return state, 1.0 / norm


def cat_norm_closed(alpha: float, phi: float) -> float:
    """Closed-form normalization factor of the two-branch cat."""
    n2 = 1.0 / (
        2.0 + 2.0 * math.cos(alpha**2 * math.sin(2 * phi))
        * math.exp(-2.0 * alpha**2 * math.sin(phi) ** 2)
    )
    return math.sqrt(n2)


def choose_cutoff(params: ModelParams, alpha: float, k: int) -> int:
    """Fock cutoff sufficient for every state the sector propagator
    produces from a cat (branch radius ``alpha``) or a number state
    ``k``, at any time.

    The displacement excursion is bounded by 2 N g / omega for all t.
    Floor value 16 for the trivial vacuum case.
    """
    if alpha < 0:
        raise DomainError(f"need alpha >= 0, got {alpha}")
    if k < 0 or k != int(k):
        raise DomainError(f"need integer k >= 0, got {k}")
    s = 2.0 * params.n_atoms * params.g / params.omega + alpha + math.sqrt(k)
    return math.ceil(s * s + 6.5 * s + 16.0)
