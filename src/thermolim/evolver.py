"""Exact joint evolution in the truncated Fock x symmetric-spin space.

The storage basis diagonalizes the dominant coupling: collective
sigma-x sectors m = N - 2q label the columns, the Fock index labels the
rows.  In that basis the Hamiltonian is the block diagonal of the
sector Hamiltonians, in units of the mode frequency omega (g, Delta
and t mean g/omega, Delta/omega and omega t),

    H_m = a^dag a + g m (a + a^dag)     (tridiagonal in n),

plus the splitting (Delta/2) Sz_X (tridiagonal across sectors), all
real symmetric, so the sparse matrix is its own transpose exactly.
With the splitting off the sectors do not couple, so
:func:`evolve_exact` propagates only the occupied sectors; the empty
ones stay exactly empty.

Every exponential e^{-iHt} in the package goes through
:func:`expm_checked`, a Chebyshev propagator (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984) over an evenly spaced grid t_k = k t / n:
the spectrum of H is bounded by Gershgorin discs, H is mapped onto
[-1, 1] once, and each interval is one three-term recurrence whose
Bessel coefficients all intervals share.  Each interval's sum is split
at a coarse window; the terms between the coarse and the full window
are the truncation that a shorter series would make, and their relative
norm, accumulated along the grid, is the error estimate at each point.
It must stay below 1e-8 and the norm must hold to 1e-9 at every point,
or the run fails loudly.  :func:`evolve_grid` yields a whole trajectory
from one such call; :func:`evolve_exact` is its one-interval case.  The
Dyson terms (:mod:`dyson`) need no exponential: they are closed Fourier
sums in the interaction frame.

This module referees every closed-form and perturbative claim made by
the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import jv

from .errors import CapacityError, DomainError, IntegrationError, ValidationError
from .fock import CAPACITY_LIMIT, FieldState, ModelParams, _bessel_window, overlap
from .spins import CollectiveState, sigma_z_coupling

__all__ = [
    "CAPACITY_LIMIT",
    "JointState",
    "HamiltonianSpec",
    "sector_hamiltonian",
    "build_hamiltonian",
    "expm_checked",
    "evolve_grid",
    "evolve_exact",
    "project_chi",
    "fidelity",
]

_ESTIMATE_TOL = 1e-8
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class JointState:
    """Joint field-spin amplitudes, shape (ncut+1) x (N+1); column q is
    the sigma-x sector with eigenvalue N - 2q."""

    amplitudes: np.ndarray
    params: ModelParams

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 2 or amps.shape[1] != self.params.n_atoms + 1:
            raise DomainError(
                f"amplitudes shape {amps.shape} incompatible with N={self.params.n_atoms}")
        if amps.shape[0] < 2:
            raise DomainError("need at least two Fock levels")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > 1e-9:
            raise DomainError(f"joint state norm {nrm!r} drifted beyond 1e-9")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def ncut(self) -> int:
        return self.amplitudes.shape[0] - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def vector(self) -> np.ndarray:
        """Sector-major flattening (column q contiguous)."""
        return self.amplitudes.ravel(order="F")

    @classmethod
    def from_vector(cls, vec: np.ndarray, params: ModelParams) -> "JointState":
        dims = params.n_atoms + 1
        if vec.size % dims != 0:
            raise DomainError(f"vector length {vec.size} not divisible by {dims}")
        return cls(vec.reshape(vec.size // dims, dims, order="F"), params)

    @classmethod
    def from_product(cls, field: FieldState, spin: CollectiveState,
                     params: ModelParams) -> "JointState":
        if spin.n_atoms != params.n_atoms:
            raise DomainError("spin state size does not match params")
        return cls(np.outer(field.amplitudes, spin.amplitudes), params)

    def field_marginal(self) -> FieldState:
        """Field amplitudes with the norm taken over sectors: row n holds
        sqrt(sum_q |c_nq|^2), so the Fock tail checks of
        :class:`FieldState` apply to the joint state."""
        return FieldState(np.linalg.norm(self.amplitudes, axis=1), normalized=False)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Sparse Hamiltonian of the joint model in the sector-major basis."""

    params: ModelParams
    ncut: int
    matrix: sp.spmatrix


def sector_hamiltonian(params: ModelParams, m: int, ncut: int) -> sp.csr_matrix:
    """H_m = n + g m (a + a^dag) on Fock levels 0..ncut: the field
    Hamiltonian inside the sigma-x sector of eigenvalue m."""
    n = np.arange(ncut + 1, dtype=float)
    ladder = (params.g * m) * np.sqrt(n[1:])
    return sp.diags([ladder, n, ladder], [-1, 0, 1], format="csr")


def build_hamiltonian(params: ModelParams, ncut: int) -> HamiltonianSpec:
    if ncut < 4:
        raise DomainError(f"need ncut >= 4, got {ncut}")
    dimf, dims = ncut + 1, params.n_atoms + 1
    if dimf * dims > CAPACITY_LIMIT:
        raise CapacityError(
            f"state dimension {dimf * dims} exceeds limit {CAPACITY_LIMIT}")
    sectors = sp.block_diag([sector_hamiltonian(params, params.n_atoms - 2 * q, ncut)
                             for q in range(dims)], format="csr")
    w = sigma_z_coupling(params.n_atoms)
    szx = sp.diags([w, w], [1, -1])
    splitting = sp.kron((params.delta / 2.0) * szx, sp.identity(dimf), format="csr")
    return HamiltonianSpec(params=params, ncut=ncut,
                           matrix=(sectors + splitting).tocsr())


def expm_checked(t: float, h, v: np.ndarray,
                 steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i t_k H) v at every point of the grid t_k = k t / steps,
    k = 0..steps, for a sparse real symmetric H, by the Chebyshev series
    (Tal-Ezer & Kosloff 1984; Kosloff, Annu. Rev. Phys. Chem. 45, 145, 1994)

        e^{-iH dt} u = e^{-ic dt} sum_{n<=K} (2 - delta_n0) (-i)^n J_n(r dt) T_n(H~) u

    over each interval dt = t / steps, with H~ = (H - c) / r.  The
    Gershgorin discs of the rows of H bound its spectrum by [c - r, c + r],
    so no T_n(H~) u grows past |u|.  K is :func:`fock._bessel_window` of
    x = r dt; the intervals share the coefficients (one ``jv`` call) and
    each costs K sparse products with H~.

    Each interval's sum is also read off at the coarse window of margin 15.
    The terms past it are the error of that shorter series, far above the
    full series' own, and their norm relative to the interval's result
    costs no extra product.  Accumulated along the grid it is the
    error estimate at each point, which measures truncation: it is zero
    only where those terms underflow.  Returns the states, shape
    (steps + 1, v.size), and the estimates, shape (steps + 1,).

    Every row must keep the norm of ``v``; a drift beyond 1e-9 at any grid
    point raises :class:`IntegrationError`.
    """
    diag = h.diagonal()
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = np.min(diag - radius), np.max(diag + radius)
    c, r = (hi + lo) / 2, (hi - lo) / 2 or 1.0  # H = c exactly: any r maps it to 0
    # 2 H~ once, complex so that no product recasts it: each term of the
    # recurrence T_{n+1} = 2 H~ T_n - T_{n-1} is one product, one subtraction
    h2 = (2 / r * (h - c * sp.identity(v.size, format="csr"))).astype(np.complex128)
    dt = t / steps
    x = r * dt
    coarse, last = _bessel_window(x, 15), _bessel_window(x)
    n = np.arange(last + 1)
    coef = np.exp(-1j * c * dt) * np.array([1, -1j, -1, 1j])[n % 4] * jv(n, x)
    coef[1:] *= 2

    out = np.empty((steps + 1, v.size), dtype=np.complex128)
    out[0] = v
    err = np.zeros(steps + 1)
    for j in range(steps):
        prev = out[j]
        cur = h2 @ prev
        cur *= 0.5
        acc = coef[0] * prev + coef[1] * cur
        for i in range(2, last + 1):
            nxt = h2 @ cur
            nxt -= prev
            acc += coef[i] * nxt
            prev, cur = cur, nxt
            if i == coarse:
                short = acc.copy()
        out[j + 1] = acc
        err[j + 1] = err[j] + (np.linalg.norm(acc - short)
                               / max(np.linalg.norm(acc), 1e-300))
    norm0 = np.linalg.norm(v)
    drift = float(max(abs(np.linalg.norm(row) - norm0) for row in out))
    if not drift <= _NORM_TOL:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds 1e-9",
                               diagnostics={"error_estimate": float(np.max(err)),
                                            "drift": drift})
    return out, err


def evolve_grid(state: JointState, t: float, steps: int, spec: HamiltonianSpec):
    """Propagate under the full Hamiltonian over the grid t_k = k t / steps,
    k = 0..steps, in one :func:`expm_checked` call; yields the state at
    each t_k in turn, the first being ``state`` itself.

    With Delta = 0 the Hamiltonian is block diagonal in the sectors, so
    only the occupied sectors (columns holding a nonzero amplitude) are
    propagated and the empty ones come back exactly zero; with Delta != 0
    the splitting links every sector to its neighbours and all are
    propagated.

    At every grid point the truncation estimate must stay within 1e-8 and
    the norm within 1e-9, else an :class:`IntegrationError` carries the
    diagnostics; each yielded state is built from its grid row only when
    it is yielded, and its field marginal must pass the Fock tail check
    of :meth:`FieldState.require_tail`."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    if spec.ncut != state.ncut or spec.params != state.params:
        raise ValidationError("state and Hamiltonian disagree on dimensions or params")
    yield state
    if t == 0:
        for _ in range(steps):
            yield state
        return
    h, v0 = spec.matrix, state.vector()
    rows = slice(None)
    occupied = np.any(state.amplitudes != 0, axis=0)
    if state.params.delta == 0 and not occupied.all():
        rows = np.repeat(occupied, state.ncut + 1)  # sector-major: q on a block of rows
        h, v0 = h[rows][:, rows], v0[rows]
    out, err = expm_checked(t, h, v0, steps=steps)
    worst = float(np.max(err))
    if not worst <= _ESTIMATE_TOL:
        raise IntegrationError(
            f"truncation estimate {worst:.3e} exceeds 1e-8",
            diagnostics={"error_estimate": worst})
    for row in out[1:]:
        full = np.zeros(state.amplitudes.size, dtype=np.complex128)
        full[rows] = row
        point = JointState.from_vector(full, state.params)
        point.field_marginal().require_tail()
        yield point


def evolve_exact(state: JointState, t: float, spec: HamiltonianSpec) -> JointState:
    """Propagate under the full Hamiltonian for time t: the last point of
    :func:`evolve_grid` over one interval, with all of its checks."""
    *_, out = evolve_grid(state, t, 1, spec)
    return out


def project_chi(state: JointState, target: CollectiveState) -> FieldState:
    """Contract the spin index against a collective state, leaving the
    unnormalized conditional field amplitudes; the squared norm is the
    occupation probability of that sector."""
    if target.n_atoms != state.params.n_atoms:
        raise DomainError("target spin size does not match the joint state")
    field = state.amplitudes @ np.conjugate(target.amplitudes)
    return FieldState(field, normalized=False)


def fidelity(a: FieldState, b: FieldState) -> float:
    """|<a|b>|^2 normalized on both sides; global-phase invariant."""
    na, nb = a.norm, b.norm
    if na == 0 or nb == 0:
        raise DomainError("fidelity of a zero-norm state is undefined")
    return min(abs(overlap(a, b)) ** 2 / (na * nb) ** 2, 1.0)
