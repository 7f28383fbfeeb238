"""Exact joint evolution in the truncated Fock x symmetric-spin space.

The storage basis diagonalizes the dominant coupling: collective
sigma-x sectors m = N - 2q label the columns, the Fock index labels the
rows.  In that basis the Hamiltonian is the block diagonal of the
sector Hamiltonians

    H_m = omega a^dag a + g m (a + a^dag)     (tridiagonal in n),

plus the splitting (Delta/2) Sz_X (tridiagonal across sectors), all
real symmetric, so the sparse matrix is its own transpose exactly.
With the splitting off the sectors do not couple, so
:func:`evolve_exact` propagates only the occupied sectors; the empty
ones stay exactly empty.

Every exponential e^{-iHt} in the package, here and in the Dyson
terms, goes through :func:`expm_checked`: scipy's truncated-Taylor
``expm_multiply`` applied once as a whole step and once as two half
steps.  The two must agree to 1e-8 and the norm must hold to 1e-9, or
the run fails loudly.

This module referees every closed-form and perturbative claim made by
the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .errors import CapacityError, DomainError, IntegrationError, ValidationError
from .fock import FieldState, ModelParams, overlap
from .spins import CollectiveState, sigma_z_coupling

__all__ = [
    "CAPACITY_LIMIT",
    "JointState",
    "HamiltonianSpec",
    "sector_hamiltonian",
    "build_hamiltonian",
    "expm_checked",
    "evolve_exact",
    "project_chi",
    "fidelity",
]

CAPACITY_LIMIT = 2_000_000  # amplitudes; past this the dense vector is refused
EXPM_CALLS = 3  # engine applications per expm_checked call
_AGREEMENT_TOL = 1e-8
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

    def sector_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)

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
    """H_m = omega n + g m (a + a^dag) on Fock levels 0..ncut: the field
    Hamiltonian inside the sigma-x sector of eigenvalue m."""
    n = np.arange(ncut + 1, dtype=float)
    ladder = (params.g * m) * np.sqrt(n[1:])
    return sp.diags([ladder, params.omega * n, ladder], [-1, 0, 1], format="csr")


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


def expm_checked(t: float, coarse, fine, keep: int | None = None,
                 unitary: int | None = None) -> tuple[np.ndarray, float]:
    """exp(-i t H) v through scipy's truncated-Taylor ``expm_multiply``
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011), evaluated
    twice and compared.

    ``coarse`` and ``fine`` are (H, v) pairs for the same propagation,
    ``fine`` possibly on a larger basis whose first ``keep`` entries
    (default all) mean the same as the coarse ones.  The coarse pair is
    applied in one step and the fine pair in two half steps, which is
    ``EXPM_CALLS`` engine applications.  Returns the first ``keep``
    entries of the fine result and their relative change from the
    coarse result, the caller's error estimate.

    The last ``unitary`` entries (default all) of the fine result must
    evolve on their own under a Hermitian block and so keep the norm of
    the fine input; a drift beyond 1e-9 raises :class:`IntegrationError`.
    """
    h, v = coarse
    whole = expm_multiply((-1j * t) * h, v)[:keep]
    h, v = fine
    half = (-0.5j * t) * h
    raw = expm_multiply(half, expm_multiply(half, v))
    out = raw[:keep]
    err = float(np.linalg.norm(out - whole)) / max(float(np.linalg.norm(out)), 1e-300)
    conserved = raw if unitary is None else raw[-unitary:]
    drift = abs(float(np.linalg.norm(conserved)) - float(np.linalg.norm(v)))
    if not drift <= _NORM_TOL:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds 1e-9",
                               diagnostics={"error_estimate": err, "drift": drift})
    return out, err


def evolve_exact(state: JointState, t: float, spec: HamiltonianSpec) -> JointState:
    """Propagate under the full Hamiltonian for time t.

    With Delta = 0 the Hamiltonian is block diagonal in the sectors, so
    only the occupied sectors (columns holding a nonzero amplitude) are
    propagated and the empty ones come back exactly zero; with Delta != 0
    the splitting links every sector to its neighbours and all are
    propagated.

    One whole step and two half steps of :func:`expm_checked` must agree
    to 1e-8 and keep the norm to 1e-9, else an :class:`IntegrationError`
    carries the diagnostics; the field marginal of the result must pass
    the Fock tail check of :meth:`FieldState.require_tail`."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    if spec.ncut != state.ncut or spec.params != state.params:
        raise ValidationError("state and Hamiltonian disagree on dimensions or params")
    if t == 0:
        return state
    h, v0 = spec.matrix, state.vector()
    rows = slice(None)
    occupied = np.any(state.amplitudes != 0, axis=0)
    if state.params.delta == 0 and not occupied.all():
        rows = np.repeat(occupied, state.ncut + 1)  # sector-major: q on a block of rows
        h, v0 = h[rows][:, rows], v0[rows]
    out, err = expm_checked(t, (h, v0), (h, v0))
    if not err <= _AGREEMENT_TOL:
        raise IntegrationError(
            f"whole step and two half steps differ by {err:.3e}, above 1e-8",
            diagnostics={"error_estimate": err})
    full = np.zeros(state.amplitudes.size, dtype=np.complex128)
    full[rows] = out
    out = JointState.from_vector(full, state.params)
    out.field_marginal().require_tail()
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
