"""Product states of N two-level atoms and their collective dynamics.

Under free precession H0 = (delta/2) * sum_i sigma_z,i every collective
first and second moment of a product state has a closed form in two
order-unity numbers built from the per-site amplitudes.  This module
implements those closed forms, an exact 2^N brute-force referee,
Ehrenfest residuals, and the (N+1)-dimensional symmetric (Dicke) sector
used by the strong-coupling machinery: the extremal sigma-x product
state and its one-flip partner.

Site convention: a_i multiplies the sigma-z eigenstate with eigenvalue
-1, b_i the one with +1.  The sign conventions here are fixed by the
brute-force referee, which the tests hold to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, DomainError

__all__ = [
    "ProductSpinSpec",
    "CollectiveState",
    "Moments",
    "random_spec",
    "sigma_moments_closed",
    "sigma_moments_bruteforce",
    "ehrenfest_residual",
    "chi_state",
    "chi_prime_state",
    "sigma_x_eigenvalues",
    "sigma_z_coupling",
]

BRUTE_FORCE_LIMIT = 14  # 2^N state vectors beyond this are refused


@dataclass(frozen=True)
class ProductSpinSpec:
    """Per-site amplitudes (a_i, b_i) of an N-atom product state."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=np.complex128)
        b = np.array(self.b, dtype=np.complex128)
        if a.ndim != 1 or a.shape != b.shape or a.size == 0:
            raise DomainError("a and b must be equal-length nonempty 1-d sequences")
        norms = np.abs(a) ** 2 + np.abs(b) ** 2
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise DomainError(f"per-site norm violated by {worst:.2e}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n_atoms(self) -> int:
        return self.a.size

    @property
    def xi(self) -> float:
        """Mean in-phase coherence, 2 sum Re(a_i* b_i) / N."""
        return float(2.0 * np.sum(np.real(np.conj(self.a) * self.b)) / self.n_atoms)

    @property
    def xi_prime(self) -> float:
        """Mean quadrature coherence, 2 sum Im(a_i* b_i) / N."""
        return float(2.0 * np.sum(np.imag(np.conj(self.a) * self.b)) / self.n_atoms)


def random_spec(n_atoms: int, rng: np.random.Generator) -> ProductSpinSpec:
    """Haar-uniform single-site states with independent phases."""
    theta = np.arccos(rng.uniform(-1.0, 1.0, n_atoms))
    chi = rng.uniform(0.0, 2 * np.pi, n_atoms)
    phi = rng.uniform(0.0, 2 * np.pi, n_atoms)
    a = np.cos(theta / 2) * np.exp(1j * chi)
    b = np.sin(theta / 2) * np.exp(1j * phi)
    return ProductSpinSpec(a, b)


class Moments(NamedTuple):
    mean_x: float
    mean_y: float
    mean_z: float
    var_x: float
    var_y: float
    var_z: float


def _site_expectations(spec: ProductSpinSpec, delta: float, t: float):
    s = np.conj(spec.a) * spec.b * np.exp(-1j * delta * t)
    sx = 2.0 * np.real(s)
    sy = -2.0 * np.imag(s)
    sz = np.abs(spec.b) ** 2 - np.abs(spec.a) ** 2
    return sx, sy, sz


def sigma_moments_closed(spec: ProductSpinSpec, delta: float, t: float) -> Moments:
    """Collective first and second moments from the product-state
    closed forms.

    mean_x = N (xi cos(delta t) + xi' sin(delta t)), its quadrature
    partner for y, constant mean_z, and var_w = N - sum_i <sigma_w,i>^2
    for each axis (cross terms factorize for product states).
    """
    n = spec.n_atoms
    sx, sy, sz = _site_expectations(spec, delta, t)
    return Moments(
        mean_x=float(np.sum(sx)),
        mean_y=float(np.sum(sy)),
        mean_z=float(np.sum(sz)),
        var_x=float(n - np.sum(sx**2)),
        var_y=float(n - np.sum(sy**2)),
        var_z=float(n - np.sum(sz**2)),
    )


@lru_cache(maxsize=8)
def _bit_tables(n_atoms: int):
    idx = np.arange(1 << n_atoms)
    nup = np.zeros(idx.size, dtype=np.int64)
    for i in range(n_atoms):
        nup += (idx >> i) & 1
    return idx, nup


def sigma_moments_bruteforce(spec: ProductSpinSpec, delta: float, t: float) -> Moments:
    """Exact moments from the full 2^N state vector; referee for the
    closed forms.  Bit i of the basis index selects site i, bit value 1
    meaning the +1 sigma-z eigenstate."""
    n = spec.n_atoms
    if n > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"N={n} exceeds brute-force limit {BRUTE_FORCE_LIMIT}")
    idx, nup = _bit_tables(n)
    psi = np.ones(1, dtype=np.complex128)
    for i in range(n):
        psi = np.kron(np.array([spec.a[i], spec.b[i]]), psi)
    energy = 0.5 * delta * (2 * nup - n)
    psi = np.exp(-1j * energy * t) * psi

    def apply_x(v):
        out = np.zeros_like(v)
        for i in range(n):
            out += v[idx ^ (1 << i)]
        return out

    def apply_y(v):
        out = np.zeros_like(v)
        for i in range(n):
            bit = (idx >> i) & 1
            out += np.where(bit == 1, -1j, 1j) * v[idx ^ (1 << i)]
        return out

    zdiag = (2 * nup - n).astype(np.float64)
    xpsi = apply_x(psi)
    ypsi = apply_y(psi)
    zpsi = zdiag * psi
    mx = float(np.vdot(psi, xpsi).real)
    my = float(np.vdot(psi, ypsi).real)
    mz = float(np.vdot(psi, zpsi).real)
    return Moments(
        mean_x=mx,
        mean_y=my,
        mean_z=mz,
        var_x=float(np.vdot(xpsi, xpsi).real - mx * mx),
        var_y=float(np.vdot(ypsi, ypsi).real - my * my),
        var_z=float(np.vdot(zpsi, zpsi).real - mz * mz),
    )


class EhrenfestResiduals(NamedTuple):
    r_x: float
    r_y: float
    r_z: float


def ehrenfest_residual(
    spec: ProductSpinSpec, delta: float, t: float, h: float
) -> EhrenfestResiduals:
    """Deviation of the closed-form means from the classical precession
    equations, with time derivatives by central difference of step h:

        r_x = |d<Sx>/dt + delta <Sy>|     (should vanish)
        r_y = |d<Sy>/dt - delta <Sx>|
        r_z = |d<Sz>/dt|
    """
    if not h > 0:
        raise DomainError(f"need h > 0, got {h}")
    lo = sigma_moments_closed(spec, delta, t - h)
    hi = sigma_moments_closed(spec, delta, t + h)
    mid = sigma_moments_closed(spec, delta, t)
    dx = (hi.mean_x - lo.mean_x) / (2 * h)
    dy = (hi.mean_y - lo.mean_y) / (2 * h)
    dz = (hi.mean_z - lo.mean_z) / (2 * h)
    return EhrenfestResiduals(
        r_x=abs(dx + delta * mid.mean_y),
        r_y=abs(dy - delta * mid.mean_x),
        r_z=abs(dz),
    )


@dataclass(frozen=True)
class CollectiveState:
    """Amplitudes over the N+1 collective sigma-x eigenstates of the
    symmetric sector; index q carries eigenvalue N - 2q."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 2:
            raise DomainError("amplitudes must cover at least N=1 (two entries)")
        if not abs(np.linalg.norm(amps) - 1.0) <= 1e-10:
            raise DomainError("collective state must have unit norm within 1e-10")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_atoms(self) -> int:
        return self.amplitudes.size - 1


def chi_state(n_atoms: int) -> CollectiveState:
    """Extremal collective state: every site in the +1 sigma-x
    eigenstate; collective sigma-x eigenvalue N."""
    if n_atoms < 1:
        raise DomainError("need n_atoms >= 1")
    amps = np.zeros(n_atoms + 1, np.complex128)
    amps[0] = 1.0
    return CollectiveState(amps)


def chi_prime_state(n_atoms: int) -> CollectiveState:
    """Normalized symmetric one-flip partner of :func:`chi_state`;
    collective sigma-x eigenvalue N - 2, orthogonal to chi."""
    if n_atoms < 1:
        raise DomainError("need n_atoms >= 1")
    amps = np.zeros(n_atoms + 1, np.complex128)
    amps[1] = 1.0
    return CollectiveState(amps)


def sigma_x_eigenvalues(n_atoms: int) -> np.ndarray:
    """Collective sigma-x eigenvalues N - 2q down the sector index q."""
    return (n_atoms - 2 * np.arange(n_atoms + 1)).astype(np.float64)


def sigma_z_coupling(n_atoms: int) -> np.ndarray:
    """Nearest-sector matrix elements of collective sigma-z in the X
    basis: <q+1|Sz|q> = sqrt((q+1)(N-q)), q = 0..N-1.

    These are the collective ladder weights sqrt(j(j+1) - m(m-1)) with
    j = N/2 written in the sector index.
    """
    q = np.arange(n_atoms)
    return np.sqrt((q + 1.0) * (n_atoms - q))
