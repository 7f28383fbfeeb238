"""Fock-space constructors and displacement kernels against exact oracles."""

from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import displacement_expm, displacement_pade, displacement_series_mp, laguerre_series
from thermolim.errors import CutoffError, DomainError
from thermolim.fock import (
    FieldState,
    ModelParams,
    assoc_laguerre,
    cat_norm_closed,
    cat_state,
    choose_cutoff,
    coherent_state,
    displaced_number_state,
    displacement_matrix,
    overlap,
)


# ---------------------------------------------------------------- laguerre

def test_laguerre_degree_zero_is_one():
    assert assoc_laguerre(0, 5, 7.3) == 1.0


def test_laguerre_degree_one():
    assert assoc_laguerre(1, 0, 2.0) == -1.0


def test_laguerre_low_order_value():
    # L_2^(1)(1) = 1/2, frozen from the exact series
    assert laguerre_series(2, 1, Fraction(1)) == Fraction(1, 2)
    assert assoc_laguerre(2, 1, 1.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 30])
@pytest.mark.parametrize("k", [-10, -3, -1, 0, 1, 4, 10])
@pytest.mark.parametrize("xfrac", [Fraction(0), Fraction(37, 100), Fraction(1),
                                   Fraction(73, 10), Fraction(2377, 100), Fraction(50)])
def test_laguerre_recurrence_matches_series(n, k, xfrac):
    if n + k < 0:
        return
    exact = laguerre_series(n, k, xfrac)
    got = assoc_laguerre(n, k, float(xfrac))
    # relative 1e-9 with a floor at the series' own term scale, for grid
    # points that happen to sit near a polynomial zero
    scale = max(
        abs(float((-1) ** j * math.comb(max(n + k, 0), n - j) * xfrac**j)
            / math.factorial(j))
        for j in range(n + 1)
    )
    assert abs(got - float(exact)) <= max(1e-9 * abs(float(exact)), 1e-13 * max(scale, 1.0))


def test_laguerre_domain_errors():
    with pytest.raises(DomainError):
        assoc_laguerre(-1, 0, 1.0)
    with pytest.raises(DomainError):
        assoc_laguerre(2, -3, 1.0)  # n + k < 0
    with pytest.raises(DomainError):
        assoc_laguerre(2, 0, -0.5)


def _leading_ratio(n, k, x):
    return assoc_laguerre(n, k, x) / ((-x) ** n / math.factorial(n))


def test_laguerre_large_argument_ratio():
    # ratio -> 1 for x -> inf at fixed (n, k); deviation ~ n(n+k)/x, so
    # the 5%-at-400 bound is asserted where n(n+k) <= 18 and monotone
    # improvement on a doubling ladder from 50
    xs = [50.0, 100.0, 200.0, 400.0]
    for n in range(6):
        for k in range(6):
            if n == 0:
                assert _leading_ratio(0, k, 123.0) == 1.0
                continue
            devs = [abs(_leading_ratio(n, k, x) - 1.0) for x in xs]
            assert devs == sorted(devs, reverse=True), (n, k, devs)
            if n * (n + k) <= 18:
                assert devs[-1] <= 0.05, (n, k, devs[-1])


# ------------------------------------------------------------ displacement

def displacement_element(n, k, alpha):
    """<n|D[alpha]|k>, read off the smallest matrix that holds it."""
    return complex(displacement_matrix(max(n, k), alpha)[n, k])


def test_displacement_vacuum_element():
    got = displacement_element(0, 0, 1.2)
    assert got == pytest.approx(math.exp(-0.72), rel=1e-12)


def test_displacement_identity_at_zero():
    assert displacement_element(3, 7, 0.0) == 0.0
    assert displacement_element(7, 7, 0.0) == 1.0


def test_displacement_1_1_element():
    # <1|D[0.5]|1> = (1 - 0.25) e^{-0.125}
    want = 0.75 * math.exp(-0.125)
    assert displacement_element(1, 1, 0.5) == pytest.approx(want, rel=1e-12)
    oracle = displacement_expm(45, 0.5)[1, 1]
    assert displacement_element(1, 1, 0.5) == pytest.approx(oracle.real, rel=1e-10)


@pytest.mark.parametrize("ncut,alpha", [(0, 0.3), (30, 0.0), (45, 0.5), (60, 1.1 + 0.7j),
                                        (80, -0.4 + 1.9j), (166, 2.5 - 1.5j)])
def test_displacement_oracle_matches_pade(ncut, alpha):
    # the cached-eigh oracle and Pade exponentiate the same truncated
    # generator, so they agree on the whole ladder, not only the trusted block
    np.testing.assert_allclose(displacement_expm(ncut, alpha), displacement_pade(ncut, alpha),
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("alpha", [0.7, 1.1 + 0.7j, -0.4 + 1.9j])
def test_displacement_matrix_matches_expm_oracle(alpha):
    block = 12
    oracle = displacement_expm(60, alpha)[:block, :block]
    ours = displacement_matrix(59, alpha)[:block, :block]
    np.testing.assert_allclose(ours, oracle, atol=5e-13)


@pytest.mark.parametrize("n,k", [(0, 0), (3, 1), (1, 3), (20, 0), (17, 9), (6, 20)])
@pytest.mark.parametrize("alpha", [0.3, 2 + 1j])
def test_displacement_element_matches_mp_series(n, k, alpha):
    oracle = displacement_series_mp(n, k, alpha)
    got = displacement_element(n, k, alpha)
    assert abs(got - complex(oracle)) <= 1e-12 * max(abs(complex(oracle)), 1e-30) + 0.0 \
        or abs(got - complex(oracle)) / abs(complex(oracle)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.7, 3.0, 2.1 + 2.1j, -1.5 + 2.5j])
def test_displacement_unitarity_columns(alpha):
    # column mass 1 within 1e-8 for k <= 20, |alpha| <= 3
    D = displacement_matrix(130, alpha)
    mass = np.sum(np.abs(D[:, :21]) ** 2, axis=0)
    np.testing.assert_allclose(mass, 1.0, atol=1e-8)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(alpha=st.complex_numbers(max_magnitude=3.0))
def test_displacement_matrix_unitary_away_from_cutoff(alpha):
    block = displacement_matrix(59, alpha)[:12, :12]
    np.testing.assert_allclose(block, displacement_expm(60, alpha)[:12, :12], rtol=0, atol=5e-13)
    mass = np.sum(np.abs(displacement_matrix(130, alpha)[:, :21]) ** 2, axis=0)
    np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-8)


def test_displacement_conjugation_relation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, k = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        alpha = complex(rng.normal(), rng.normal())
        lhs = displacement_element(n, k, alpha)
        rhs = np.conj(displacement_element(k, n, -alpha))
        assert abs(lhs - rhs) <= 1e-10


def test_displacement_magnitude_bounded():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n, k = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        alpha = complex(rng.normal(scale=2), rng.normal(scale=2))
        assert abs(displacement_element(n, k, alpha)) <= 1.0 + 1e-12


def test_displacement_huge_argument_is_finite():
    # bounded recurrence: no overflow even at |alpha|^2 ~ 1300
    val = displacement_matrix(400, 36.0)[400, 395]
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) <= 1.0 + 1e-12


# ----------------------------------------------------------------- states

def test_coherent_vacuum():
    st = coherent_state(0.0, 16)
    assert st.amplitudes[0] == 1.0
    assert np.all(st.amplitudes[1:] == 0)


def test_coherent_mean_photon_number():
    st = coherent_state(2.0, choose_cutoff(ModelParams(1, 0, 0, 1), 2.0, 0))
    n = np.arange(st.ncut + 1)
    mean = float(np.sum(n * np.abs(st.amplitudes) ** 2))
    assert mean == pytest.approx(4.0, abs=1e-8)


def test_coherent_overlap_closed_form():
    a = coherent_state(1.0, 60)
    b = coherent_state(2.0, 60)
    assert abs(overlap(a, b)) == pytest.approx(math.exp(-0.5), rel=1e-9)


def test_coherent_cutoff_error():
    with pytest.raises(CutoffError):
        coherent_state(6.0, 30)


def test_displaced_number_k0_is_coherent(subtests=None):
    a = displaced_number_state(0, 1.3 - 0.4j, 50)
    b = coherent_state(1.3 - 0.4j, 50)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_displaced_number_orthogonal_to_coherent():
    alpha = 1.1 + 0.6j
    coh = coherent_state(alpha, 70)
    assert abs(overlap(coh, displaced_number_state(0, alpha, 70))) == pytest.approx(1.0, abs=1e-10)
    for k in (1, 2, 5):
        assert abs(overlap(coh, displaced_number_state(k, alpha, 70))) <= 1e-8


def test_displaced_number_matches_expm_column():
    oracle = displacement_expm(70, 1.5)[:, 2]
    ours = displaced_number_state(2, 1.5, 70)
    # oracle column is unnormalized only by truncation; compare low block
    np.testing.assert_allclose(ours.amplitudes[:30], oracle[:30], atol=1e-10)


def test_displaced_number_precondition():
    with pytest.raises(DomainError):
        displaced_number_state(31, 1.0, 30)


def test_cat_phi_zero_collapses_to_coherent():
    st, norm = cat_state(1.4, 0.0, 40)
    assert norm**2 == pytest.approx(0.25, rel=1e-10)
    coh = coherent_state(1.4, 40)
    assert abs(overlap(st, coh)) == pytest.approx(1.0, abs=1e-10)


def test_cat_orthogonal_branches():
    _, norm = cat_state(4.0, math.pi / 2, choose_cutoff(ModelParams(1, 0, 0, 1), 4.0, 0))
    assert norm**2 == pytest.approx(1.0 / (2 + 2 * math.exp(-32)), rel=1e-9)


def test_cat_norm_closed_form_cross_check():
    ncut = 40
    st, norm = cat_state(1.0, math.pi / 4, ncut)
    closed = cat_norm_closed(1.0, math.pi / 4)
    assert closed**2 == pytest.approx(0.41708, abs=2e-5)  # exact value 0.4170955…
    assert norm == pytest.approx(closed, rel=1e-10)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) <= 1e-10


# ----------------------------------------------------------------- bounds

def test_choose_cutoff_floor():
    assert choose_cutoff(ModelParams(1.0, 0.0, 0.0, 1), 0.0, 0) == 16


def test_choose_cutoff_cat_case():
    got = choose_cutoff(ModelParams(1.0, 0.0, 0.25, 8), 2.0, 0)
    assert got >= 52


def test_choose_cutoff_number_state_case():
    got = choose_cutoff(ModelParams(1.0, 0.0, 0.0, 1), 0.0, 4)
    assert got >= 32
    assert got >= 4  # |4> representable


def test_field_state_tail_guard():
    amps = np.zeros(41, complex)
    amps[40] = 1.0
    with pytest.raises(CutoffError):
        FieldState(amps).require_tail()


def test_field_state_normalized_invariant():
    with pytest.raises(DomainError):
        FieldState(np.array([1.0, 1.0], complex))


def test_field_state_immutability():
    st = coherent_state(1.0, 20)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0.0, 0.0, 0.1, 2)
    with pytest.raises(DomainError):
        ModelParams(1.0, -0.1, 0.1, 2)
    with pytest.raises(DomainError):
        ModelParams(1.0, 0.0, 0.1, 0)
