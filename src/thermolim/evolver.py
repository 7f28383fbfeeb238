"""Exact joint evolution in the truncated Fock x symmetric-spin space.

The storage basis diagonalizes the dominant coupling: collective
sigma-x sectors m = N - 2q label the columns, the Fock index labels the
rows.  In units of the mode frequency omega (g, Delta and t mean
g/omega, Delta/omega and omega t) the Hamiltonian is three Kronecker
products, spin factor first,

    H = I (x) n + g diag(m) (x) (a + a^dag) + (Delta/2) Sz_X (x) I,

the sector Hamiltonians on the diagonal blocks plus the splitting
across sectors, real symmetric.  In the sector-major storage it has
five diagonals: the photon number on the main one, the Fock ladder at
offsets +-1 and the splitting at +-(ncut + 1); :class:`Hamiltonian`
keeps each symmetric pair once as a band, and its one product
:meth:`Hamiltonian.apply` works on array slices.
With the splitting off the sectors do not couple, so
:func:`evolve_exact` propagates only the occupied sectors; the empty
ones stay exactly empty.

Every exponential e^{-iHt} in the package goes through
:func:`expm_checked`, a Chebyshev propagator (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984) over an evenly spaced grid t_k = k t / n:
the spectrum of H is bounded by Gershgorin discs, H is mapped onto
[-1, 1] once, and each interval is one three-term recurrence whose
Bessel coefficients all intervals share.  The Bessel tail past the last
term bounds the relative norm each interval drops; k times it is the
error estimate at t_k.  It must stay below 1e-8, checked before any
product, and the norm must hold to 1e-9 at every point, or the run
fails loudly.  :func:`evolve_grid` builds H from the state and yields a
whole trajectory from one such call; :func:`evolve_exact` is its
one-interval case.  The Dyson terms (:mod:`dyson`) need no exponential:
they are closed Fourier sums in the interaction frame.

This module referees every closed-form and perturbative claim made by
the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, IntegrationError
from .fock import (
    CAPACITY_LIMIT,
    FieldState,
    ModelParams,
    _bessel_table,
    _bessel_window,
    overlap,
)
from .spins import CollectiveState, sigma_x_eigenvalues, sigma_z_coupling

__all__ = [
    "CAPACITY_LIMIT",
    "JointState",
    "Hamiltonian",
    "HamiltonianSpec",
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
class Hamiltonian:
    """Symmetric H on ``dim`` rows from its diagonals: ``diagonal`` on the
    main one and each ``(values, offset)`` of ``bands`` at +-offset, its
    values the entries at (i, i + offset), so dim - offset of them.  Rows
    come in sectors of ``block``; a band inside the sectors is zero across
    their edges."""

    diagonal: np.ndarray
    bands: tuple[tuple[np.ndarray, int], ...]
    block: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diagonal.size, self.diagonal.size)

    @property
    def nnz(self) -> int:
        """Stored entries of H as a sparse matrix: its nonzero entries."""
        return int(np.count_nonzero(self.diagonal)
                   + sum(2 * np.count_nonzero(values) for values, _ in self.bands))

    def bounds(self) -> tuple[float, float]:
        """The Gershgorin interval [lo, hi] holding the spectrum: each row's
        diagonal entry -+ the absolute sum of its off-diagonal entries."""
        radius = np.zeros(self.diagonal.size)
        for values, offset in self.bands:
            radius[:-offset] += np.abs(values)
            radius[offset:] += np.abs(values)
        return (float(np.min(self.diagonal - radius)),
                float(np.max(self.diagonal + radius)))

    def sectors(self, occupied: np.ndarray) -> "Hamiltonian":
        """H on the rows of the sectors (blocks of ``block`` rows) marked in
        ``occupied``.  Only bands reaching a whole block couple sectors, so
        this is exact where they are off; where one is on, a
        :class:`DomainError`."""
        if any(values.any() for values, offset in self.bands if offset >= self.block):
            raise DomainError("the splitting couples the sectors; keep them all")
        rows = np.repeat(occupied, self.block)
        # a band is zero across sector edges, so the kept rows' entries to
        # rows offset further on stay zero there too
        return Hamiltonian(self.diagonal[rows], tuple(
            (np.append(values, np.zeros(offset))[rows][:-offset], offset)
            for values, offset in self.bands if offset < self.block), self.block)

    def toarray(self) -> np.ndarray:
        """H as a dense matrix."""
        dense = np.diag(self.diagonal)
        for values, offset in self.bands:
            dense += np.diag(values, offset) + np.diag(values, -offset)
        return dense

    def apply(self, u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out = H u, through ``scratch``, a buffer of u's size; neither may
        be ``u``."""
        np.multiply(self.diagonal, u, out=out)
        for values, offset in self.bands:
            part = scratch[:-offset]
            np.multiply(values, u[offset:], out=part)
            out[:-offset] += part
            np.multiply(values, u[:-offset], out=part)
            out[offset:] += part

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """H v."""
        v = np.asarray(v)
        dtype = np.result_type(self.diagonal, v)
        out, scratch = np.empty(v.shape, dtype), np.empty(v.shape, dtype)
        self.apply(v, out, scratch)
        return out


@dataclass(frozen=True)
class HamiltonianSpec:
    """Hamiltonian of the joint model in the sector-major basis."""

    matrix: Hamiltonian


def build_hamiltonian(params: ModelParams, ncut: int) -> HamiltonianSpec:
    """The module's H on Fock levels 0..ncut: n on the diagonal, the
    coupling g m_q sqrt(n) at offsets +-1 within each sector q, and the
    splitting (Delta/2) w_q at offsets +-(ncut + 1)."""
    if ncut < 4:
        raise DomainError(f"need ncut >= 4, got {ncut}")
    dimf, dims = ncut + 1, params.n_atoms + 1
    if dimf * dims > CAPACITY_LIMIT:
        raise CapacityError(
            f"state dimension {dimf * dims} exceeds limit {CAPACITY_LIMIT}")
    n = np.arange(dimf, dtype=float)
    m = sigma_x_eigenvalues(params.n_atoms)
    # row n of sector q to row n + 1: g m_q sqrt(n + 1); none to the next sector
    ladder = np.zeros((dims, dimf))
    ladder[:, :-1] = np.outer(params.g * m, np.sqrt(n[1:]))
    w = (params.delta / 2.0) * sigma_z_coupling(params.n_atoms)
    return HamiltonianSpec(matrix=Hamiltonian(
        diagonal=np.tile(n, dims),
        bands=((ladder.ravel()[:-1], 1), (np.repeat(w, dimf), dimf)), block=dimf))


def expm_checked(t: float, h: Hamiltonian, v: np.ndarray,
                 steps: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i t_k H) v at every point of the grid t_k = k t / steps,
    k = 0..steps, for a real symmetric :class:`Hamiltonian`, by the
    Chebyshev series (Tal-Ezer & Kosloff 1984; Kosloff, Annu. Rev. Phys.
    Chem. 45, 145, 1994)

        e^{-iH dt} u = e^{-ic dt} sum_{n<=K} (2 - delta_n0) (-i)^n J_n(r dt) T_n(H~) u

    over each interval dt = t / steps, with H~ = (H - c) / r.  The
    Gershgorin discs of the rows of H bound its spectrum by [c - r, c + r],
    so no T_n(H~) u grows past |u|.  K is :func:`fock._bessel_window` of
    x = r dt; the intervals share the coefficients (one Bessel table) and
    each costs K products with H~, every one a few array operations on
    diagonal slices into buffers allocated once, while runs of the terms
    join the sum one matrix-vector product at a time.

    The terms an interval drops are at most 2 sum_{n>K} |J_n(x)| of |u|;
    past n = x the ratio |J_{n+1} / J_n| falls, so the geometric series on
    the first ratio bounds them by tail = 2 |J_{K+1}| / (1 - |J_{K+2} / J_{K+1}|),
    zero where J_{K+1} underflows.  The error estimate at t_k is k tail,
    at no product's cost; above 1e-8 it raises :class:`IntegrationError`
    before any product is taken.  Returns the states, shape
    (steps + 1, v.size), and the estimates, shape (steps + 1,).

    Every row must keep the norm of ``v``; a drift beyond 1e-9 at any grid
    point raises :class:`IntegrationError`.
    """
    lo, hi = h.bounds()
    c, r = (hi + lo) / 2, (hi - lo) / 2 or 1.0  # H = c exactly: any r maps it to 0
    # 2 H~ without its all-zero bands, complex once so that no product
    # recasts it (numpy would convert real diagonals on every call); each
    # term of the recurrence T_{n+1} = 2 H~ T_n - T_{n-1} is one product,
    # one subtraction
    h2 = Hamiltonian((2 / r * (h.diagonal - c)).astype(np.complex128),
                     tuple(((2 / r * values).astype(np.complex128), offset)
                           for values, offset in h.bands if values.any()), h.block)
    dt = t / steps
    x = r * dt
    last = _bessel_window(x)
    bessel = _bessel_table(x, last + 2)
    first, second = abs(bessel[-2]), abs(bessel[-1])
    tail = 2 * first / (1 - second / first) if first > 0 else 0.0
    err = tail * np.arange(steps + 1)
    if not err[-1] <= _ESTIMATE_TOL:
        raise IntegrationError(
            f"truncation estimate {err[-1]:.3e} exceeds 1e-8",
            diagnostics={"error_estimate": float(err[-1])})
    n = np.arange(last + 1)
    coef = np.exp(-1j * c * dt) * np.array([1, -1j, -1, 1j])[n % 4] * bessel[:-2]
    coef[1:] *= 2

    scratch = np.empty(v.size, dtype=np.complex128)
    out = np.empty((steps + 1, v.size), dtype=np.complex128)
    out[0] = v
    # T_n(H~) u for a run of consecutive n, as long as fits in 4 MB, joins
    # the sum in one matrix-vector product with their coefficients
    run = max(3, min(32, (1 << 22) // (16 * v.size)))
    terms = np.empty((run, v.size), dtype=np.complex128)
    for j in range(steps):
        acc = out[j + 1]
        acc[:] = 0
        terms[0] = out[j]
        h2.apply(terms[0], terms[1], scratch)
        terms[1] *= 0.5
        first = 0  # the order held in terms[0]
        for i in range(2, last + 1):
            k = i - first
            if k == run:  # sum all but the two the recurrence still reads
                acc += coef[first:first + run - 2] @ terms[:-2]
                terms[:2] = terms[-2:]
                first, k = i - 2, 2
            h2.apply(terms[k - 1], terms[k], scratch)
            terms[k] -= terms[k - 2]
        acc += coef[first:] @ terms[:last + 1 - first]
    norm0 = np.linalg.norm(v)
    drift = float(max(abs(np.linalg.norm(row) - norm0) for row in out))
    if not drift <= _NORM_TOL:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds 1e-9",
                               diagnostics={"error_estimate": float(err[-1]),
                                            "drift": drift})
    return out, err


def evolve_grid(state: JointState, t: float, steps: int):
    """Propagate under the Hamiltonian of ``state``'s params and cutoff
    over the grid t_k = k t / steps, k = 0..steps, in one
    :func:`expm_checked` call; yields the state at each t_k in turn,
    t = 0 included.

    With Delta = 0 the Hamiltonian is block diagonal in the sectors, so
    only the occupied sectors (columns holding a nonzero amplitude) are
    propagated and the empty ones come back exactly zero; with Delta != 0
    the splitting links every sector to its neighbours and all are
    propagated.

    At every grid point the Bessel tail bound of the truncation must stay
    within 1e-8 and the norm within 1e-9, else an :class:`IntegrationError`
    carries the diagnostics; each yielded state, the first as well, is
    built from its grid row only when it is yielded, and its field marginal
    must pass the Fock tail check of :meth:`FieldState.require_tail`."""
    if t < 0:
        raise DomainError(f"need t >= 0, got {t}")
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    h, v0 = build_hamiltonian(state.params, state.ncut).matrix, state.vector()
    rows = slice(None)
    occupied = np.any(state.amplitudes != 0, axis=0)
    if state.params.delta == 0 and not occupied.all():
        rows = np.repeat(occupied, state.ncut + 1)  # sector-major: q on a block of rows
        h, v0 = h.sectors(occupied), v0[rows]
    out, _ = expm_checked(t, h, v0, steps=steps)
    for row in out:
        full = np.zeros(state.amplitudes.size, dtype=np.complex128)
        full[rows] = row
        point = JointState.from_vector(full, state.params)
        point.field_marginal().require_tail()
        yield point


def evolve_exact(state: JointState, t: float) -> JointState:
    """Propagate under the full Hamiltonian for time t: the last point of
    :func:`evolve_grid` over one interval, with all of its checks."""
    *_, out = evolve_grid(state, t, 1)
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
