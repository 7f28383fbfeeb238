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

import functools
import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import CapacityError, CutoffError, DomainError

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
CAPACITY_LIMIT = 2_000_000  # amplitudes; past this a dense array is refused


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model: level splitting ``delta``,
    coupling ``g`` and atom count ``n_atoms``.  Rates and times are in
    units of the mode frequency omega: ``delta`` and ``g`` mean
    delta/omega and g/omega, and a time t means omega t.
    """

    delta: float
    g: float
    n_atoms: int

    def __post_init__(self):
        for name in ("delta", "g"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and 0 <= value < math.inf):
                raise DomainError(f"{name} must be finite and >= 0, got {value}")
        n = self.n_atoms
        if not (isinstance(n, Real) and 1 <= n < math.inf and n == math.floor(n)):
            raise DomainError(f"n_atoms must be an integer >= 1, got {n}")
        object.__setattr__(self, "n_atoms", int(n))


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
            if not abs(total - 1.0) <= 1e-10:  # a NaN fails too
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
        return float(_tail_masses(self.amplitudes))

    def require_tail(self, tol: float = TAIL_TOL) -> "FieldState":
        """Raise :class:`CutoffError` when the truncation band holds
        more than ``tol`` probability; return self otherwise."""
        _require_tails(self.amplitudes, tol)
        return self


def _band_start(ncut: int) -> int:
    """First level of the truncation band n > ncut - max(8, ncut/10)."""
    return max(0, math.floor(ncut - max(8.0, ncut / 10.0)) + 1)


def _tail_masses(amps: np.ndarray) -> np.ndarray:
    """Probability in the truncation band of each row of ``amps``."""
    return np.sum(np.abs(amps[..., _band_start(amps.shape[-1] - 1):]) ** 2, axis=-1)


def _require_tails(amps: np.ndarray, tol: float) -> None:
    """Raise :class:`CutoffError`, naming the first offending row and its
    tail mass, when any row of ``amps`` holds more than ``tol`` in its band."""
    tails = np.atleast_1d(_tail_masses(amps))
    over = np.flatnonzero(~(tails <= tol))
    if over.size:
        where = f" at row {over[0]}" if amps.ndim > 1 else ""
        raise CutoffError(f"tail mass {tails[over[0]]:.3e}{where} exceeds {tol:.1e}; "
                          f"increase ncut={amps.shape[-1] - 1}")


def _unit_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``raw`` scaled to unit norm, and their norms, each row
    held to a constructed state's checks: :class:`CutoffError` for a zero
    or NaN row or one with over ``TAIL_TOL`` in its tail band, and
    :class:`DomainError`, as in a normalized :class:`FieldState`, for a
    squared norm that misses 1 by over 1e-10."""
    norms = np.linalg.norm(raw, axis=-1)
    if not (norms > 0).all():  # a NaN norm fails too, and argmin finds it first
        row = np.argmin(norms)
        raise CutoffError(f"zero norm at row {row}; cutoff unusable" if norms[row] == 0
                          else f"nan norm at row {row}; amplitudes not finite")
    rows = raw / norms[:, None]
    off = np.abs(np.sum(np.abs(rows) ** 2, axis=-1) - 1.0)
    if not (off <= 1e-10).all():
        raise DomainError(f"row {np.argmax(off)} marked normalized but its "
                          f"sum |c_n|^2 misses 1 by {off.max()!r}")
    _require_tails(rows, TAIL_TOL)
    return rows, norms


def overlap(a: FieldState, b: FieldState) -> complex:
    """Inner product <a|b> over the levels both states hold: the longer
    vector's extra levels would only meet zeros in the shorter one."""
    n = min(a.amplitudes.size, b.amplitudes.size)
    return complex(np.vdot(a.amplitudes[:n], b.amplitudes[:n]))


def _support(amps: np.ndarray, tol: float) -> int:
    """Last level whose suffix norm sqrt(sum_(n>=d) |amps_n|^2) is at least
    ``tol`` (0 if none is)."""
    suffix = np.sqrt(np.cumsum(np.abs(amps[::-1]) ** 2))[::-1]
    above = np.flatnonzero(suffix >= tol)
    return int(above[-1]) if above.size else 0


def _bessel_window(x: float) -> int:
    """Last order n = ceil(x + 30 + 10 x^(1/3)) kept in a Bessel sum of
    argument x >= 0: past the turning point n = x, J_n(x) falls off
    super-exponentially over a width of order x^(1/3).  The Jacobi-Anger sums
    of :mod:`dyson` and the Chebyshev series of :mod:`evolver` share it."""
    return math.ceil(x + 30 + 10 * x ** (1 / 3))


def _bessel_table(x: float, last: int) -> np.ndarray:
    """J_0(x) .. J_last(x) for x >= 0, by Miller's backward recurrence
    J_{k-1} = (2k / x) J_k - J_{k+1} (Abramowitz & Stegun 9.1.27; Numerical
    Recipes 6.5).

    Started from J_{s+1} = 0, J_s = 1 at s = the Bessel window of ``last``,
    where the true values are negligible, the recurrence runs down onto the
    minimal solution; the identity J_0 + 2 sum_k J_2k = 1 (A&S 9.1.46)
    fixes its scale.  Whenever a value passes 1e250 the values so far are
    scaled down by 1e-250, so nothing overflows; the smallest orders
    underflow to zero, as they should.  Below x = 1e-8 the recurrence's
    step 2k/x would itself overflow and the series' first term is exact to
    rounding, J_n = (x/2)^n / n!."""
    if x < 1e-8:
        out, term = np.zeros(last + 1), 1.0
        for n in range(last + 1):
            out[n] = term
            term *= 0.5 * x / (n + 1)
        return out
    start = _bessel_window(max(x, last))
    vals = [0.0] * (start + 1)
    vals[start] = cur = 1.0
    nxt = 0.0
    for k in range(start, 0, -1):
        # 2k / x rounded afresh each step: one rounded 2 / x would shift the
        # whole table to a neighbouring x, by up to 3e-15 at x = 1000
        nxt, cur = cur, 2 * k / x * cur - nxt
        if abs(cur) > 1e250:
            vals[k:] = [v * 1e-250 for v in vals[k:]]
            nxt, cur = nxt * 1e-250, cur * 1e-250
        vals[k - 1] = cur
    return np.array(vals[: last + 1]) / (vals[0] + 2.0 * math.fsum(vals[2::2]))


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


@functools.lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    """log d! for d = 0..size-1, one ``math.lgamma`` each, read-only.  A
    running sum of logs would drift: by 1.4e-9 at d = 20 000."""
    table = np.array([math.lgamma(d + 1.0) for d in range(size)])
    table.setflags(write=False)
    return table


def _log_factorials(d) -> np.ndarray:
    """log d! for an array of integers d >= 0, read from a table sized to
    the next power of two above the largest."""
    d = np.asarray(d).astype(np.intp)
    return _log_factorial_table(1 << int(d.max(initial=0)).bit_length())[d]


def _scaled_diagonal(d, x, jmax: int) -> np.ndarray:
    """Magnitudes of the displacement diagonals n - k = d >= 0.

    Returns M[j] = exp(-x/2) x^(d/2) sqrt(j!/(j+d)!) L_j^(d)(x) for
    j = 0..jmax, vectorized over the diagonal ``d`` and the argument
    ``x = |a|^2`` (broadcast together).  Each M[j] is a unitary matrix
    element in magnitude, so the recurrence is bounded by 1 and cannot
    overflow even for x in the thousands.
    """
    d = np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((jmax + 1,) + np.broadcast_shapes(d.shape, x.shape))
    with np.errstate(divide="ignore"):  # log(0) at grid points with x = 0
        logm0 = -0.5 * x + 0.5 * d * np.log(np.where(x > 0, x, 1.0)) \
            - 0.5 * _log_factorials(d)
    out[0] = np.where(x > 0, np.exp(logm0), d == 0)  # x^(d/2) = [d = 0] at x = 0
    if jmax >= 1:
        out[1] = out[0] * (1.0 + d - x) / np.sqrt(1 + d)
    if jmax < 2:
        return out
    # scaled three-term recurrence; coefficients are O(1) and computed
    # for every step at once, so the loop below does array work only
    j = np.arange(1.0, jmax).reshape((-1,) + (1,) * d.ndim)
    c = 2 * j + 1 + d
    s = np.sqrt((j + 1) * (j + 1 + d))
    b = np.sqrt(j * (j + d) / ((j + 1) * (j + 1 + d)))
    for i in range(jmax - 1):
        out[i + 2] = (c[i] - x) / s[i] * out[i + 1] - b[i] * out[i]
    return out


def _displacement_elements(n, k, alpha) -> np.ndarray:
    """<n|D[a]|k> for broadcastable photon-number arrays n and k, at a
    scalar ``alpha`` or at each a of a 1-d array, whose axis comes last.

    ``<n|D|k> = M_{|n-k|}[min(n, k)] e^{i(n-k) theta}`` with the sign
    (-1)^(k-n) above the diagonal (Cahill & Glauber 1969), read from one
    bounded recurrence over the diagonals n - k reaches, with |a|^2
    broadcast over the a; the sign and phase are tabled once per
    diagonal.  Exactly the identity when every a is 0, where the
    recurrence is not bit-exact.
    """
    n, k = np.broadcast_arrays(n, k)
    alpha = np.asarray(alpha, dtype=np.complex128)
    if not alpha.any():
        return np.broadcast_to((n == k)[(...,) + (None,) * alpha.ndim],
                               n.shape + alpha.shape).astype(np.complex128)
    d = n - k
    lo = np.minimum(n, k)
    ad = np.abs(d)
    diags = np.arange(ad.max() + 1)[(...,) + (None,) * alpha.ndim]
    mags = _scaled_diagonal(diags, np.abs(alpha) ** 2, lo.max())[lo, ad]
    first = d.min()
    reached = np.arange(first, d.max() + 1)
    factor = np.exp(1j * np.multiply.outer(reached, np.angle(alpha)))
    factor[(reached < 0) & (reached % 2 == 1)] *= -1
    return mags * factor[d - first]


def displacement_matrix(ncut: int, alpha: complex) -> np.ndarray:
    """Dense (ncut+1) x (ncut+1) matrix of <n|D[alpha]|k>.

    All elements from one vectorized bounded recurrence; cost O(ncut^2).
    The result is unitary up to truncation: the top rows and columns
    lose mass that escaped past the cutoff.
    """
    if ncut < 0:
        raise DomainError(f"need ncut >= 0, got {ncut}")
    idx = np.arange(ncut + 1)
    return _displacement_elements(idx[:, None], idx[None, :], complex(alpha))


def coherent_state(alpha: complex, ncut: int) -> FieldState:
    """Coherent state |alpha> = D[alpha]|0> on the truncated ladder,
    renormalized (truncation removes <= the tail budget).  Raises
    :class:`CutoffError` when the cutoff cannot hold the state."""
    return displaced_number_state(0, alpha, ncut)


def displaced_number_state(k: int, alpha: complex, ncut: int) -> FieldState:
    """Displaced number state |k, alpha> = D[alpha]|k>: the one-row case
    of :func:`_displaced_rows`, renormalized and certified like every
    constructed state."""
    return FieldState(_displaced_rows(k, [alpha], ncut)[0])


def _displaced_rows(k: int, alphas, ncut: int) -> np.ndarray:
    """Rows D[a]|k> on levels 0..ncut, one per a in ``alphas``: column k
    of the displacement matrix at each a, O(k ncut) a row from one
    recurrence, renormalized and checked by :func:`_unit_rows`."""
    if k < 0 or k != int(k):
        raise DomainError(f"need integer k >= 0, got {k}")
    k = int(k)
    if k > ncut:
        raise DomainError(f"k={k} exceeds ncut={ncut}")
    cols = _displacement_elements(np.arange(ncut + 1), k, alphas)
    # contiguous rows sum alike in any stack, so a row is the one-row result
    return _unit_rows(np.ascontiguousarray(cols.T))[0]


def _superposition(terms) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the normalized sums of the ``(weights, rows)`` pairs in
    ``terms`` (one weight per row), checked by :func:`_unit_rows`, plus
    the applied normalization factors."""
    raw = sum(np.asarray(w)[:, None] * rows for w, rows in terms)
    out, norms = _unit_rows(raw)
    return out, 1.0 / norms


def cat_state(alpha: float, phi: float, ncut: int) -> tuple[FieldState, float]:
    """Normalized two-branch superposition of |alpha e^{i phi}> and
    |alpha e^{-i phi}>, plus the applied normalization factor.

    The factor is recomputed from the constructed truncated vector; its
    closed form 1/sqrt(2 + 2 cos(a^2 sin 2phi) exp(-2 a^2 sin^2 phi))
    serves as a cross-check in the tests, not as the applied value.
    """
    if alpha < 0:
        raise DomainError(f"need alpha >= 0, got {alpha}")
    branches = _displaced_rows(0, alpha * np.exp(np.array([1j, -1j]) * phi), ncut)
    out, factor = _superposition([([1], branches[:1]), ([1], branches[1:])])
    return FieldState(out[0]), float(factor[0])


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

    The displacement excursion is bounded by 2 N g for all t, so every
    such state lies within radius s = 2 N g + alpha + sqrt(k).  The cutoff
    starts at s^2 + 6.5 s + 16 (floor value 16 for the trivial vacuum
    case) and grows until the band n > ncut - max(8, ncut/10) that
    :meth:`FieldState.tail_mass` watches holds at most ``TAIL_TOL`` of
    Poisson(s^2), the photon distribution of a coherent state of radius
    s.  The band widens with the cutoff, so the start value alone stops
    clearing it from s ~ 12 on; below that the start value is kept.

    A start value whose Poisson table (2 ncut + 1 entries) would exceed
    ``CAPACITY_LIMIT``, or that overflows a float, raises
    :class:`CapacityError` before anything is allocated.
    """
    if alpha < 0:
        raise DomainError(f"need alpha >= 0, got {alpha}")
    if k < 0 or k != int(k):
        raise DomainError(f"need integer k >= 0, got {k}")
    try:
        s = 2.0 * params.n_atoms * params.g + alpha + math.sqrt(k)
    except OverflowError:
        s = math.inf
    mean = s * s
    start = mean + 6.5 * s + 16.0
    if not start <= (CAPACITY_LIMIT - 1) // 2:
        raise CapacityError(
            f"cutoff start value {start:.3g}: its Poisson table of 2 ncut + 1 "
            f"entries would exceed {CAPACITY_LIMIT}")
    ncut = math.ceil(start)
    if mean > 0:
        # above[j]: Poisson(s^2) mass on j..2 ncut; past 2 ncut it is nil
        j = np.arange(2 * ncut + 1)
        log_fact = np.concatenate([[0.0], np.cumsum(np.log(j[1:]))])
        pmf = np.exp(j * math.log(mean) - mean - log_fact)
        above = np.cumsum(pmf[::-1])[::-1]
        while above[_band_start(ncut)] > TAIL_TOL:
            ncut += 1
    return ncut
