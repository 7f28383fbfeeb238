"""Spin-ensemble closed forms against the 2^N brute force and an
independent dense-matrix referee."""

import math

import numpy as np
import pytest
import scipy.linalg

from thermolim.errors import CapacityError, DomainError
from thermolim.spins import (
    CollectiveState,
    ProductSpinSpec,
    chi_prime_state,
    chi_state,
    ehrenfest_residual,
    random_spec,
    sigma_moments_bruteforce,
    sigma_moments_closed,
    sigma_x_eigenvalues,
    sigma_z_coupling,
)

SX = np.array([[0, 1], [1, 0]], complex)
SY = np.array([[0, -1j], [1j, 0]], complex)
SZ = np.array([[1, 0], [0, -1]], complex)  # basis order (up, down)


def _dense_referee(spec, delta, t):
    """Moments via explicit kron products and a dense propagator;
    independent of both module code paths.  Site vector (b, a) in the
    (up, down) basis order."""
    n = spec.n_atoms
    psi = np.ones(1, complex)
    for i in range(n):
        psi = np.kron(psi, np.array([spec.b[i], spec.a[i]]))

    def collective(op):
        total = np.zeros((2**n, 2**n), complex)
        for i in range(n):
            mats = [np.eye(2, dtype=complex)] * n
            mats[i] = op
            acc = np.array([[1.0]], complex)
            for m in mats:
                acc = np.kron(acc, m)
            total += acc
        return total

    H = 0.5 * delta * collective(SZ)
    psi_t = scipy.linalg.expm(-1j * H * t) @ psi
    out = {}
    for name, op in (("x", SX), ("y", SY), ("z", SZ)):
        M = collective(op)
        mean = np.vdot(psi_t, M @ psi_t).real
        second = np.vdot(M @ psi_t, M @ psi_t).real
        out[f"mean_{name}"] = mean
        out[f"var_{name}"] = second - mean**2
    return out


# ------------------------------------------------------------ closed forms

def test_all_down_sites_give_flat_moments():
    spec = ProductSpinSpec(np.ones(5), np.zeros(5))
    for t in (0.0, 0.3, 2.0):
        m = sigma_moments_closed(spec, 1.3, t)
        assert m.mean_x == 0.0 and m.mean_y == 0.0
        assert m.var_x == 5.0 and m.var_y == 5.0
        assert m.mean_z == -5.0 and m.var_z == 0.0


def test_equator_sites_precess():
    n, delta = 6, 0.9
    r = 1 / math.sqrt(2)
    spec = ProductSpinSpec(np.full(n, r), np.full(n, r))
    for t in (0.0, 0.4, 1.7):
        m = sigma_moments_closed(spec, delta, t)
        assert m.mean_x == pytest.approx(n * math.cos(delta * t), abs=1e-12)
        assert m.var_x == pytest.approx(n * math.sin(delta * t) ** 2, abs=1e-12)
    assert sigma_moments_closed(spec, delta, 0.0).var_x == pytest.approx(0.0, abs=1e-14)


def test_closed_matches_bruteforce_seeded():
    rng = np.random.default_rng(42)
    spec = random_spec(10, rng)
    closed = sigma_moments_closed(spec, 1.0, 0.7)
    brute = sigma_moments_bruteforce(spec, 1.0, 0.7)
    for c, b in zip(closed, brute):
        assert abs(c - b) <= 1e-10


def test_closed_and_brute_match_dense_referee():
    # three-way agreement pins the sign conventions
    rng = np.random.default_rng(7)
    spec = random_spec(3, rng)
    ref = _dense_referee(spec, 1.1, 0.83)
    closed = sigma_moments_closed(spec, 1.1, 0.83)._asdict()
    brute = sigma_moments_bruteforce(spec, 1.1, 0.83)._asdict()
    for key, val in ref.items():
        assert closed[key] == pytest.approx(val, abs=1e-10), key
        assert brute[key] == pytest.approx(val, abs=1e-10), key


def test_bruteforce_t0_is_initial_state():
    rng = np.random.default_rng(1)
    spec = random_spec(4, rng)
    m0 = sigma_moments_bruteforce(spec, 2.0, 0.0)
    c0 = sigma_moments_closed(spec, 2.0, 0.0)
    for a, b in zip(m0, c0):
        assert abs(a - b) <= 1e-12


def test_bruteforce_mean_z_constant():
    rng = np.random.default_rng(5)
    spec = random_spec(6, rng)
    vals = [sigma_moments_bruteforce(spec, 1.7, t).mean_z for t in (0, 0.3, 1.1, 4.0)]
    assert max(vals) - min(vals) <= 1e-12


def test_bruteforce_capacity_limit():
    spec = ProductSpinSpec(np.ones(15), np.zeros(15))
    with pytest.raises(CapacityError):
        sigma_moments_bruteforce(spec, 1.0, 0.1)


def test_moment_recurrence_at_full_period():
    rng = np.random.default_rng(9)
    spec = random_spec(7, rng)
    delta = 1.3
    m0 = sigma_moments_closed(spec, delta, 0.2)
    m1 = sigma_moments_closed(spec, delta, 0.2 + 2 * math.pi / delta)
    for a, b in zip(m0, m1):
        assert abs(a - b) <= 1e-10


def test_variance_bounds_random_specs():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        spec = random_spec(n, rng)
        m = sigma_moments_closed(spec, 1.0, float(rng.uniform(0, 5)))
        for var in (m.var_x, m.var_y, m.var_z):
            assert -1e-12 <= var <= n + 1e-12


def test_fluctuation_ratio_scales_as_inverse_sqrt_n():
    # identical per-site coefficients at every N: ratio = sqrt((1-c^2)/c^2/N)
    a0, b0 = math.sqrt(0.7), complex(math.sqrt(0.18), math.sqrt(0.12))
    ns = [4, 8, 16, 32, 64]
    ratios = []
    for n in ns:
        spec = ProductSpinSpec(np.full(n, a0), np.full(n, b0))
        m = sigma_moments_closed(spec, 1.0, 0.6)
        ratios.append(math.sqrt(m.var_x) / abs(m.mean_x))
    slope = np.polyfit(np.log(ns), np.log(ratios), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


# -------------------------------------------------------------- ehrenfest

def test_ehrenfest_residual_quadratic_in_h():
    rng = np.random.default_rng(13)
    spec = random_spec(8, rng)
    r1 = ehrenfest_residual(spec, 1.4, 0.9, 1e-4)
    r2 = ehrenfest_residual(spec, 1.4, 0.9, 5e-5)
    bound = spec.n_atoms * 1.4**3  # third-derivative scale
    assert r1.r_x <= bound * 1e-8 and r1.r_y <= bound * 1e-8
    # halving h cuts the residual about 4x (exactly quadratic here)
    if r1.r_x > 1e-12:
        assert r2.r_x <= r1.r_x / 3.0
    if r1.r_y > 1e-12:
        assert r2.r_y <= r1.r_y / 3.0


def test_ehrenfest_trivial_spec():
    spec = ProductSpinSpec(np.ones(4), np.zeros(4))
    r = ehrenfest_residual(spec, 2.0, 1.0, 1e-4)
    assert r.r_x <= 1e-12 and r.r_y <= 1e-12 and r.r_z <= 1e-12


def test_ehrenfest_rz_always_zero():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = random_spec(5, rng)
        r = ehrenfest_residual(spec, 1.0, float(rng.uniform(0, 3)), 1e-4)
        assert r.r_z <= 1e-10


def test_ehrenfest_requires_positive_h():
    spec = ProductSpinSpec(np.ones(2), np.zeros(2))
    with pytest.raises(DomainError):
        ehrenfest_residual(spec, 1.0, 0.5, 0.0)


# --------------------------------------------------------- collective sector

def test_chi_is_extremal_eigenstate():
    for n in (1, 4, 9):
        chi = chi_state(n)
        evals = sigma_x_eigenvalues(n)
        mean = float(np.sum(evals * np.abs(chi.amplitudes) ** 2))
        second = float(np.sum(evals**2 * np.abs(chi.amplitudes) ** 2))
        assert mean == n and second - mean**2 == 0.0


def test_chi_prime_orthonormal():
    for n in (1, 3, 8):
        chi = chi_state(n)
        chip = chi_prime_state(n)
        assert abs(np.vdot(chip.amplitudes, chi.amplitudes)) == 0.0
        assert np.linalg.norm(chip.amplitudes) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_chi_prime_sigma_x_expectation(n):
    chip = chi_prime_state(n)
    evals = sigma_x_eigenvalues(n)
    mean = float(np.sum(evals * np.abs(chip.amplitudes) ** 2))
    assert mean == n - 2


def test_chi_prime_matches_product_representation():
    # embed the one-flip symmetric state in the 2^N sigma-x product
    # basis (bit=1 means eigenvalue -1) and measure collective sigma-x
    for n in (2, 3):
        dims = 1 << n
        vec = np.zeros(dims)
        for s in range(dims):
            if bin(s).count("1") == 1:
                vec[s] = 1.0
        vec /= np.linalg.norm(vec)
        evals = np.array([n - 2 * bin(s).count("1") for s in range(dims)])
        assert float(np.sum(evals * vec**2)) == pytest.approx(n - 2, abs=1e-12)


def test_sigma_z_coupling_weights():
    w = sigma_z_coupling(4)
    np.testing.assert_allclose(w, [2.0, math.sqrt(6), math.sqrt(6), 2.0])
    # ladder-weight identity sqrt(j(j+1) - m(m-1)), j = N/2
    for n in (3, 6):
        j = n / 2
        mu = j - np.arange(n)
        np.testing.assert_allclose(
            sigma_z_coupling(n), np.sqrt(j * (j + 1) - mu * (mu - 1)), atol=1e-12
        )


def test_collective_state_validation():
    with pytest.raises(DomainError):
        CollectiveState(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        CollectiveState(np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan)])
def test_nan_amplitude_fails_spin_norm_checks(bad):
    with pytest.raises(DomainError, match="unit norm"):
        CollectiveState(np.array([1.0, 0.0, bad]))
    with pytest.raises(DomainError, match="violated by nan"):
        ProductSpinSpec(np.array([1.0, bad]), np.zeros(2))


def test_spec_validation_and_seeding():
    with pytest.raises(DomainError):
        ProductSpinSpec(np.ones(3), np.ones(3))
    s1 = random_spec(6, np.random.default_rng(99))
    s2 = random_spec(6, np.random.default_rng(99))
    np.testing.assert_array_equal(s1.a, s2.a)
    np.testing.assert_array_equal(s1.b, s2.b)
