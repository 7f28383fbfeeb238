"""Closed-form strong-coupling evolution, sector by sector.

With the splitting switched off, the model is block-diagonal over
collective sigma-x sectors, and within the sector of eigenvalue m the
propagator is exactly a phase, a free rotation, and a displacement:

    U_m(t) = e^{i xi_m(t)} e^{-i n t} D[beta_m(t)],
    xi_m(t)   = (m g)^2 (t - sin t),
    beta_m(t) = m g (1 - e^{i t}),

applied right to left (displacement first), with g and t in units of
the mode frequency omega (g/omega and omega t).  Everything here follows
from composing that operator with coherent-state algebra: the evolved
two-branch cat, the evolved number-state superposition, and the
large-displacement asymptotics of the number-state branch.

The global phase e^{i xi} is kept on returned states — downstream
perturbative assemblies need it — while all fidelity metrics ignore it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CutoffError, DomainError
from .fock import (
    TAIL_TOL,
    FieldState,
    ModelParams,
    _displacement_elements,
    _displaced_rows,
    _superposition,
    assoc_laguerre,
)

__all__ = [
    "sector_frame",
    "apply_uf_sector",
    "evolve_cat_leading",
    "evolve_cat_grid",
    "evolve_fock_leading",
    "evolve_fock_grid",
    "asymptotic_branch_ratio",
]


def sector_frame(m: int, params: ModelParams, t):
    """Phase xi_m(t) and displacement beta_m(t) of U_m(t) for the sector
    with collective sigma-x eigenvalue m in {-N, -N+2, ..., N}: the one closed
    form that every evolved state is built from, for finite t >= 0 or an array of such t."""
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0) & (t < math.inf)):  # a NaN fails too
        raise DomainError(f"need finite t >= 0, got {t}")
    N = params.n_atoms
    if m != int(m) or abs(m) > N or (N - m) % 2 != 0:
        raise DomainError(f"m={m} is not a sigma-x eigenvalue for N={N}")
    ratio = m * params.g
    return ratio**2 * (t - np.sin(t)), ratio * (1.0 - np.exp(1j * t))


def _cat_centers(params: ModelParams, alpha: float, phi: float, times) -> np.ndarray:
    """The (2, T) branch centres beta' + alpha e^{+-i phi - i t} of the
    evolved cat at each of ``times`` (rows +phi and -phi), with
    beta' = beta_N e^{-i t} from :func:`sector_frame`: the one place the
    cat's geometry is written.  The t = 0 column is alpha e^{+-i phi}."""
    t = np.asarray(times, dtype=np.float64)
    rot = np.exp(-1j * t)
    gammas = alpha * np.exp(1j * np.array([[phi], [-phi]]))
    return sector_frame(params.n_atoms, params, t)[1] * rot + gammas * rot


def _sector_map(x: np.ndarray, m: int, params: ModelParams, t: float,
                ncut: int) -> np.ndarray:
    """U_m(t) x on levels 0..ncut for amplitudes x on levels 0..x.size-1:
    e^{i xi_m} e^{-itn} D[beta_m] x, from one block of displacement
    elements."""
    xi, beta = sector_frame(m, params, t)
    n = np.arange(ncut + 1)
    out = _displacement_elements(n[:, None], np.arange(x.size), beta) @ x
    return np.exp(1j * xi) * np.exp(-1j * t * n) * out


def _require_kept(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Return ``out``, the image of ``x`` under the unitary U_m(t) on 0..ncut;
    raise :class:`CutoffError` if it lacks over ``TAIL_TOL`` of |x|^2 (gone past ncut)."""
    before = float(np.vdot(x, x).real)
    lost = before - float(np.vdot(out, out).real)
    if not lost <= TAIL_TOL * before:
        raise CutoffError(
            f"sector map lost {lost / before:.3e} of |x|^2; increase ncut={out.size - 1}")
    return out


def apply_uf_sector(state: FieldState, m: int, params: ModelParams, t: float) -> FieldState:
    """Apply the sector propagator U_m(t) to a field state: the
    displacement acts first, then the free rotation, then the scalar
    phase.  The result is the raw linear image (no renormalization);
    truncation leakage is certified by the lost norm and the tail check,
    both relative to the squared norm, so an unnormalized input is held
    to the same budget."""
    amps = _require_kept(state.amplitudes,
                         _sector_map(state.amplitudes, m, params, t, state.ncut))
    norm = float(np.linalg.norm(amps))
    return FieldState(amps, normalized=bool(abs(norm - 1.0) <= 1e-10)).require_tail(
        TAIL_TOL * norm ** 2)


def evolve_cat_leading(
    params: ModelParams, alpha: float, phi: float, t: float, ncut: int
) -> FieldState:
    """Leading-order evolved cat at time t: the one-time case of
    :func:`evolve_cat_grid`."""
    return evolve_cat_grid(params, alpha, phi, [t], ncut)[0]


def evolve_cat_grid(params: ModelParams, alpha: float, phi: float, times,
                    ncut: int) -> list[FieldState]:
    """Leading-order evolved cat at each of ``times``: U_N(t) on the cat
    of radius ``alpha`` and opening angle ``phi`` is two coherent branches
    at the centres of :func:`_cat_centers`, with global phase xi_N and
    branch phases alpha Im(beta_N e^{-+i phi}) from composing the displacements,
    D[b]D[c] = e^{i Im(b conj(c))} D[b+c].  Both branches at every time
    are rows of one :func:`fock._displaced_rows` call, each tail-checked;
    each time's sum is renormalized after truncation and tail-checked.

    The collective spin factor stays pinned to the extremal sector and
    is carried implicitly.
    """
    t = np.asarray(times, dtype=np.float64)
    xi, beta = sector_frame(params.n_atoms, params, t)
    shifts = alpha * (beta * np.exp(-1j * np.array([[phi], [-phi]]))).imag
    weights = np.exp(1j * xi) * np.exp(1j * shifts)
    rows = _displaced_rows(0, _cat_centers(params, alpha, phi, t).ravel(), ncut)
    out, _ = _superposition(list(zip(weights, rows.reshape(2, t.size, -1))))
    return [FieldState(row) for row in out]


def evolve_fock_leading(params: ModelParams, k: int, t: float, ncut: int) -> FieldState:
    """Leading-order evolution of (|0> + |k>)/sqrt(2) at time t: the
    one-time case of :func:`evolve_fock_grid`."""
    return evolve_fock_grid(params, k, [t], ncut)[0]


def evolve_fock_grid(params: ModelParams, k: int, times, ncut: int) -> list[FieldState]:
    """Leading-order evolution of (|0> + |k>)/sqrt(2) at each of ``times``:
    a coherent branch |beta'> plus a displaced number branch
    e^{-i k t} |k, beta'>, with global phase xi; renormalized after
    truncation (the branches are exactly orthogonal for k != 0).  At
    k = 0 it is the vacuum's evolution, |beta'> alone.  Each branch's
    rows come from one :func:`fock._displaced_rows` call, and every row
    and every sum is checked."""
    t = np.asarray(times, dtype=np.float64)
    xi, beta = sector_frame(params.n_atoms, params, t)
    centers, phases = beta * np.exp(-1j * t), np.exp(1j * xi)
    terms = [(phases, _displaced_rows(0, centers, ncut))]
    if k:
        terms.append((phases * np.exp(-1j * k * t), _displaced_rows(k, centers, ncut)))
    return [FieldState(row) for row in _superposition(terms)[0]]


def asymptotic_branch_ratio(k: int, n: int, beta_prime: complex) -> complex:
    """Amplitude of |n> in the displaced number state |k, beta'>
    relative to the coherent surrogate (-conj(beta'))^k/sqrt(k!) <n|beta'>.

    After exact cancellation of the shared Gaussian, power, and phase
    factors the ratio is the real Laguerre-to-leading-term quotient

        L_min^(|n-k|)(x) / ((-x)^min / min!),   x = |beta'|^2,

    which tends to 1 as |beta'| grows at fixed (n, k).  Neither side is
    ever formed separately, so nothing underflows; the only
    indeterminate case is beta' = 0 with min(n, k) > 0.
    """
    if k < 0 or n < 0:
        raise DomainError(f"need n, k >= 0, got {(n, k)}")
    if k == 0:
        if beta_prime == 0 and n > 0:
            raise DomainError("ratio indeterminate at beta'=0")
        return 1.0 + 0.0j
    if beta_prime == 0:
        raise DomainError("ratio indeterminate at beta'=0")
    x = abs(beta_prime) ** 2
    mn = min(n, k)
    lead = (-x) ** mn / math.factorial(mn)
    return complex(assoc_laguerre(mn, abs(n - k), x) / lead)
