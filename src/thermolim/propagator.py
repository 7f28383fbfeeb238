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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DomainError
from .fock import (
    TAIL_TOL,
    FieldState,
    ModelParams,
    _displacement_elements,
    _superposition,
    assoc_laguerre,
    coherent_state,
    displaced_number_state,
)

__all__ = [
    "AnalyticFrame",
    "frame",
    "sector_frame",
    "apply_uf_sector",
    "evolve_cat_leading",
    "evolve_fock_leading",
    "asymptotic_branch_ratio",
]


@dataclass(frozen=True)
class AnalyticFrame:
    """The time-t closed-form quantities for the extremal sector.

    phi1/phi2 are the branch phases picked up when the displacement
    lands on each coherent branch of the cat.
    """

    xi: float
    beta: complex
    beta_prime: complex
    phi1: float
    phi2: float


def sector_frame(m: int, params: ModelParams, t: float) -> tuple[float, complex]:
    """Phase xi_m and displacement beta_m for the sector with
    collective sigma-x eigenvalue m in {-N, -N+2, ..., N}."""
    N = params.n_atoms
    if m != int(m) or abs(m) > N or (N - m) % 2 != 0:
        raise DomainError(f"m={m} is not a sigma-x eigenvalue for N={N}")
    ratio = m * params.g
    return ratio**2 * (t - math.sin(t)), ratio * (1.0 - cmath.exp(1j * t))


def frame(params: ModelParams, alpha: float, phi: float, t: float) -> AnalyticFrame:
    """All closed-form quantities at time t for the extremal sector
    (m = N) and a cat of radius ``alpha``, opening angle ``phi``.

    The branch phases are computed two ways — displacement composition
    D[b]D[c] = e^{i Im(b conj(c))} D[b+c], and the half-difference form
    -i alpha (b e^{-i phi} - conj(b) e^{i phi})/2 — and must agree to
    1e-10; the composition value is the one returned.
    """
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    xi, beta = sector_frame(params.n_atoms, params, t)
    beta_prime = beta * cmath.exp(-1j * t)
    phi1 = alpha * (beta * cmath.exp(-1j * phi)).imag
    phi2 = alpha * (beta * cmath.exp(1j * phi)).imag
    alt1 = (-1j * alpha * (beta * cmath.exp(-1j * phi) - beta.conjugate() * cmath.exp(1j * phi)) / 2)
    alt2 = (-1j * alpha * (beta * cmath.exp(1j * phi) - beta.conjugate() * cmath.exp(-1j * phi)) / 2)
    if abs(alt1.real - phi1) > 1e-10 or abs(alt2.real - phi2) > 1e-10:
        raise DomainError("branch-phase conventions disagree beyond 1e-10")
    return AnalyticFrame(xi=xi, beta=beta, beta_prime=beta_prime, phi1=phi1, phi2=phi2)


def _sector_map(x: np.ndarray, m: int, params: ModelParams, t: float,
                ncut: int) -> np.ndarray:
    """U_m(t) x on levels 0..ncut for amplitudes x on levels 0..x.size-1:
    e^{i xi_m} e^{-itn} D[beta_m] x, from one block of displacement
    elements."""
    xi, beta = sector_frame(m, params, t)
    n = np.arange(ncut + 1)
    out = _displacement_elements(n[:, None], np.arange(x.size), beta) @ x
    return cmath.exp(1j * xi) * np.exp(-1j * t * n) * out


def _require_kept(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Return ``out``, the image of ``x`` under the unitary U_m(t) on 0..ncut;
    raise :class:`CutoffError` if it lacks over ``TAIL_TOL`` of |x|^2 (gone past ncut)."""
    before = float(np.vdot(x, x).real)
    lost = before - float(np.vdot(out, out).real)
    if lost > TAIL_TOL * before:
        raise CutoffError(
            f"sector map lost {lost / before:.3e} of |x|^2; increase ncut={out.size - 1}")
    return out


def apply_uf_sector(state: FieldState, m: int, params: ModelParams, t: float) -> FieldState:
    """Apply the sector propagator U_m(t) to a field state: the
    displacement acts first, then the free rotation, then the scalar
    phase.  The result is the raw linear image (no renormalization);
    truncation leakage is certified by the lost norm and the tail check."""
    amps = _require_kept(state.amplitudes,
                         _sector_map(state.amplitudes, m, params, t, state.ncut))
    out = FieldState(amps, normalized=bool(abs(np.linalg.norm(amps) - 1.0) <= 1e-10))
    out.require_tail()
    return out


def evolve_cat_leading(
    params: ModelParams, alpha: float, phi: float, t: float, ncut: int
) -> FieldState:
    """Leading-order evolved cat: two coherent branches at
    beta' + alpha e^{+-i phi - i t} with branch phases phi1/phi2
    and global phase xi, renormalized after truncation.

    The collective spin factor stays pinned to the extremal sector and
    is carried implicitly.
    """
    fr = frame(params, alpha, phi, t)
    c1 = fr.beta_prime + alpha * cmath.exp(1j * phi - 1j * t)
    c2 = fr.beta_prime + alpha * cmath.exp(-1j * phi - 1j * t)
    phase = cmath.exp(1j * fr.xi)
    return _superposition([(phase * cmath.exp(1j * fr.phi1), coherent_state(c1, ncut)),
                           (phase * cmath.exp(1j * fr.phi2), coherent_state(c2, ncut))])[0]


def evolve_fock_leading(params: ModelParams, k: int, t: float, ncut: int) -> FieldState:
    """Leading-order evolution of (|0> + |k>)/sqrt(2): a coherent
    branch |beta'> plus a displaced number branch e^{-i k t}
    |k, beta'>, with global phase xi; renormalized after truncation
    (the branches are exactly orthogonal for k != 0).  At k = 0 it is
    the vacuum's evolution, |beta'> alone."""
    if k < 0 or k != int(k):
        raise DomainError(f"need integer k >= 0, got {k}")
    fr = frame(params, 0.0, 0.0, t)
    phase = cmath.exp(1j * fr.xi)
    terms = [(phase, coherent_state(fr.beta_prime, ncut))]
    if k:
        terms.append((phase * cmath.exp(-1j * k * t),
                      displaced_number_state(k, fr.beta_prime, ncut)))
    return _superposition(terms)[0]


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
