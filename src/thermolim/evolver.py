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
[-1, 1] once, and each segment of a few consecutive intervals is one
three-term recurrence from the segment's first state, which every point
of the segment sums to its own Bessel window; the segments share the
Bessel tables.  The Bessel tail past a point's window bounds the
relative norm its series drops; added to the estimate at the segment's
start it is the error estimate at that point.  It must stay below 1e-8,
checked before any product, and the norm must hold to 1e-9 at every
point, or the run fails loudly.  :func:`evolve_grid` builds H from the
state and yields a whole trajectory from one such call;
:func:`evolve_exact` is its one-interval case.  The Dyson terms
(:mod:`dyson`) need no exponential: they are closed Fourier sums in the
interaction frame.

This module referees every closed-form and perturbative claim made by
the rest of the package.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
# the engine's run of Chebyshev terms and its Bessel coefficient table each
# stay within this many bytes
_BUFFER_BYTES = 1 << 22
# A segment takes as many grid intervals as its argument span * r dt needs
# to reach this.  Every series pays the Bessel window's margin 30 + 10 x^(1/3)
# terms past its x; at x = 200 that margin (about 88 terms) is under half of
# the series, while each further point of a segment costs one more Bessel
# table of Python-level Miller steps per call.
_SEGMENT_ARG = 200.0


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

        e^{-iH s} u = e^{-ic s} sum_{n<=K} (2 - delta_n0) (-i)^n J_n(r s) T_n(H~) u

    with H~ = (H - c) / r.  The Gershgorin discs of the rows of H bound its
    spectrum by [c - r, c + r], so no T_n(H~) u grows past |u|.

    The grid is cut into segments of ``span`` intervals dt = t / steps, the
    fewest whose argument span * r dt reaches 200 (at most ``steps``, and
    fewer where the coefficient table would pass 4 MB); the last segment
    holds what is left.  A segment runs one recurrence T_n(H~) u from its
    first state u, and its point j (j = 1..span) sums it to its own window
    K_j, :func:`fock._bessel_window` of x_j = j r dt, with s = j dt above.
    The ``span`` Bessel tables serve every segment.  Each term costs one
    product with H~, a few array operations on diagonal slices into
    buffers allocated once, while runs of the terms join the sums of the
    points whose windows reach them in one matrix product.  A grid with
    r dt >= 200, and a single interval, take one series per interval.

    The terms point j drops are at most 2 sum_{n>K_j} |J_n(x_j)| of |u|;
    past n = x_j the ratio |J_{n+1} / J_n| falls, so the geometric series on
    the first ratio bounds them by
    tail_j = 2 |J_{K_j+1}| / (1 - |J_{K_j+2} / J_{K_j+1}|), zero where
    J_{K_j+1} underflows.  The error estimate at a point is the estimate at
    its segment's first state plus its tail_j, at no product's cost; above
    1e-8 anywhere it raises :class:`IntegrationError` before any product is
    taken.  Returns the states, shape (steps + 1, v.size), and the
    estimates, shape (steps + 1,).

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
    span = steps if x * steps <= _SEGMENT_ARG else math.ceil(_SEGMENT_ARG / x)
    # fewer where span rows of K_span + 1 coefficients would pass the budget
    span = max(1, min(span, _BUFFER_BYTES // (16 * (_bessel_window(span * x) + 1))))
    lasts = [_bessel_window(j * x) for j in range(1, span + 1)]
    # row j - 1: point j's coefficients, zero past its window
    coef = np.zeros((span, lasts[-1] + 1), dtype=np.complex128)
    quarter = np.array([1, -1j, -1, 1j])[np.arange(lasts[-1] + 1) % 4]  # (-i)^n
    tail = np.empty(span)
    for j, last in enumerate(lasts, 1):
        bessel = _bessel_table(j * x, last + 2)
        first, second = abs(bessel[-2]), abs(bessel[-1])
        tail[j - 1] = 2 * first / (1 - second / first) if first > 0 else 0.0
        row = coef[j - 1, :last + 1]
        row[:] = np.exp(-1j * c * (j * dt)) * quarter[:last + 1] * bessel[:-2]
        row[1:] *= 2
    # grid point k is point (k - 1) % span + 1 of a segment that starts
    # after (k - 1) // span whole ones
    ks = np.arange(steps)
    err = np.concatenate([[0.0], ks // span * tail[-1] + tail[ks % span]])
    worst = float(err.max())
    if not worst <= _ESTIMATE_TOL:
        raise IntegrationError(
            f"truncation estimate {worst:.3e} exceeds 1e-8",
            diagnostics={"error_estimate": worst})

    scratch = np.empty(v.size, dtype=np.complex128)
    out = np.empty((steps + 1, v.size), dtype=np.complex128)
    out[0] = v
    # T_n(H~) u for a run of consecutive n, as long as fits in 4 MB, joins
    # the sums in one matrix product with the coefficients of the points
    # whose windows reach it
    run = max(3, min(32, _BUFFER_BYTES // (16 * v.size)))
    terms = np.empty((run, v.size), dtype=np.complex128)
    for base in range(0, steps, span):
        size = min(span, steps - base)
        acc, last = out[base + 1:base + size + 1], lasts[size - 1]
        acc[:] = 0
        terms[0] = out[base]
        h2.apply(terms[0], terms[1], scratch)
        terms[1] *= 0.5
        first = 0  # the order held in terms[0]
        for i in range(2, last + 1):
            k = i - first
            if k == run:  # sum all but the two the recurrence still reads
                reach = bisect_left(lasts, first, 0, size)
                acc[reach:] += coef[reach:size, first:first + run - 2] @ terms[:-2]
                terms[:2] = terms[-2:]
                first, k = i - 2, 2
            h2.apply(terms[k - 1], terms[k], scratch)
            terms[k] -= terms[k - 2]
        reach = bisect_left(lasts, first, 0, size)
        acc[reach:] += coef[reach:size, first:last + 1] @ terms[:last + 1 - first]
    norm0 = np.linalg.norm(v)
    drift = float(max(abs(np.linalg.norm(row) - norm0) for row in out))
    if not drift <= _NORM_TOL:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds 1e-9",
                               diagnostics={"error_estimate": worst,
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
