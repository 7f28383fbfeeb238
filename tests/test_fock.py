"""Fock-space constructors and displacement kernels against exact oracles."""

import cmath
from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import coherent_closed, displacement_expm, displacement_pade, \
    displacement_series_mp, laguerre_series, log_factorials
from thermolim import fock
from thermolim.errors import CapacityError, CutoffError, DomainError
from thermolim.fock import (
    CAPACITY_LIMIT,
    TAIL_TOL,
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
from thermolim.fock import _bessel_table, _bessel_window, _log_factorials, _support


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


@pytest.mark.parametrize("ncut, alpha", [(59, 0.5), (59, 1.3 + 0.4j), (59, -3 + 2j),
                                         (130, 6j), (200, 10.0), (400, 36.0)])
def test_displacement_matrix_unchanged_by_log_factorial_route(monkeypatch, ncut, alpha):
    # scipy's gammaln and math.lgamma differ by up to 4 ulp of log d!, which
    # moves an element by 3.7e-15 at ncut = 59, alpha = 0.5 and by at most
    # 1.1e-14 here; both routes are as close to the exact elements
    ours = displacement_matrix(ncut, alpha)
    monkeypatch.setattr(fock, "_log_factorials", log_factorials)
    assert np.abs(ours - displacement_matrix(ncut, alpha)).max() <= 2e-14


def test_log_factorials_match_scipy():
    # scipy's gammaln is itself up to 3 ulp from the correctly rounded
    # log d! here (mpmath), so one ulp between the two is out of reach
    d = np.arange(20_001)
    ours = _log_factorials(d)
    assert ours[0] == ours[1] == 0.0
    np.testing.assert_array_max_ulp(ours[2:], log_factorials(d[2:]), maxulp=4)
    np.testing.assert_array_equal(_log_factorials(d[::-7].reshape(-1, 1)),
                                  ours[::-7].reshape(-1, 1))


# ----------------------------------------------------------------- bessel

def _besselj_mp(n: int, x: float) -> float:
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.besselj(n, x))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(x=st.floats(0.0, 3000.0), order=st.floats(0.0, 1.0))
@example(x=3000.0, order=0.97)
@example(x=999.0, order=0.5)
@example(x=59.68, order=0.0)
def test_bessel_table_matches_mpmath(x, order):
    # Miller's recurrence against mpmath at an order drawn from 0..K+2 and
    # at the two orders past the window, K + 1 and K + 2, that the
    # evolver's tail bound reads
    last = _bessel_window(x) + 2
    table = _bessel_table(x, last)
    assert table.shape == (last + 1,)
    for n in (round(order * last), last - 1, last):
        assert abs(table[n] - _besselj_mp(n, x)) <= 1e-15


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1e-12, 9.9e-9, 1e-8, 1.1e-8, 1e-6, 0.3])
def test_bessel_table_at_tiny_argument(x):
    # below x = 1e-8 the table is the series' first term; above it Miller's
    # recurrence rescales past the growth of 2k/x; both to rounding
    last = _bessel_window(x) + 2
    table = _bessel_table(x, last)
    want = np.array([_besselj_mp(n, x) for n in range(last + 1)])
    np.testing.assert_allclose(table, want, rtol=1e-13, atol=1e-300)
    if x == 0:
        assert table[0] == 1.0 and not table[1:].any()


# ----------------------------------------------------------------- states

def test_coherent_vacuum():
    st = coherent_state(0.0, 16)
    assert st.amplitudes[0] == 1.0
    assert np.all(st.amplitudes[1:] == 0)


def test_coherent_mean_photon_number():
    st = coherent_state(2.0, choose_cutoff(ModelParams(0, 0, 1), 2.0, 0))
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
    # the k = 0 column against the log-domain Poisson formula
    for alpha, ncut in [(1.3 - 0.4j, 50), (0.0, 16), (3.5j, 60), (-5.0 + 2.0j, 90)]:
        want = coherent_closed(alpha, ncut)
        np.testing.assert_allclose(coherent_state(alpha, ncut).amplitudes, want, atol=1e-12)
        np.testing.assert_allclose(displaced_number_state(0, alpha, ncut).amplitudes,
                                   want, atol=1e-12)


def test_displaced_number_orthogonal_to_coherent():
    alpha = 1.1 + 0.6j
    coh = coherent_state(alpha, 70)
    assert abs(overlap(coh, displaced_number_state(0, alpha, 70))) == pytest.approx(1.0, abs=1e-10)
    for k in (1, 2, 5):
        assert abs(overlap(coh, displaced_number_state(k, alpha, 70))) <= 1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, 8), alpha=st.complex_numbers(max_magnitude=4.0), data=st.data())
def test_displaced_number_matches_expm_column(k, alpha, data):
    ncut = data.draw(st.integers(k + 40, 90), label="ncut")
    # the oracle ladder reaches 80 levels past the cutoff, so its column
    # is exact on 0..ncut up to the mass that escapes the cutoff
    oracle = displacement_expm(ncut + 80, alpha)[: ncut + 1, k]
    try:
        ours = displaced_number_state(k, alpha, ncut)
    except CutoffError:
        # refused only when the truncation band really holds the budget
        assert FieldState(oracle / np.linalg.norm(oracle)).tail_mass() > TAIL_TOL
        return
    # the low block holds the rows n < k (sign and j = n) and the diagonal
    block = k + 30
    np.testing.assert_allclose(ours.amplitudes[:block], oracle[:block], atol=1e-10)


@pytest.mark.parametrize("beta", [40.0, 40.0 * cmath.exp(1j * math.pi / 3)])
def test_displaced_number_large_argument_matches_mp_series(beta):
    # |2, beta> at |beta|^2 = 1600 on the cutoff the asymptotics gate uses
    amps = displaced_number_state(2, beta, 2544).amplitudes
    m = math.floor(abs(beta) ** 2)
    for n in [0, 1, 2, m - 3, m + 3, m + 200]:
        want = complex(displacement_series_mp(n, 2, beta))
        assert abs(amps[n] - want) <= 1e-12, (n, amps[n], want)


def test_displaced_number_precondition():
    with pytest.raises(DomainError):
        displaced_number_state(31, 1.0, 30)


def test_cat_phi_zero_collapses_to_coherent():
    st, norm = cat_state(1.4, 0.0, 40)
    assert norm**2 == pytest.approx(0.25, rel=1e-10)
    coh = coherent_state(1.4, 40)
    assert abs(overlap(st, coh)) == pytest.approx(1.0, abs=1e-10)


def test_cat_orthogonal_branches():
    _, norm = cat_state(4.0, math.pi / 2, choose_cutoff(ModelParams(0, 0, 1), 4.0, 0))
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
    assert choose_cutoff(ModelParams(0.0, 0.0, 1), 0.0, 0) == 16
    # s^2 underflows to 0 for couplings this small
    assert choose_cutoff(ModelParams(0.0, 1e-160, 1), 0.0, 0) == 16


def test_choose_cutoff_cat_case():
    got = choose_cutoff(ModelParams(0.0, 0.25, 8), 2.0, 0)
    assert got >= 52


def test_choose_cutoff_number_state_case():
    got = choose_cutoff(ModelParams(0.0, 0.0, 1), 0.0, 4)
    assert got >= 32
    assert got >= 4  # |4> representable


def test_choose_cutoff_refuses_ladders_past_the_capacity_limit():
    # N g = 2.5e5 asks for a Poisson table of ~5e11 entries; 10**400 atoms
    # overflow a float.  Both are refused before the table is built.
    for n_atoms in [10**6, 10**400]:
        with pytest.raises(CapacityError, match=str(CAPACITY_LIMIT)):
            choose_cutoff(ModelParams(0.0, 0.25, n_atoms), 0.0, 0)
    with pytest.raises(CapacityError):
        choose_cutoff(ModelParams(0.0, 0.0, 1), 0.0, 10**400)
    # s = 500 starts at 253266, inside the limit
    assert choose_cutoff(ModelParams(0.0, 0.25, 1000), 0.0, 0) >= 253266


def test_support_is_last_level_with_suffix_norm_at_tolerance():
    amps = np.array([1.0, 3e-13, 4e-13, 0.0, 0.0])
    assert _support(amps, 1e-12) == 0
    assert _support(amps, 4.5e-13) == 1  # suffix norms 5e-13, 4e-13 at levels 1, 2
    assert _support(amps, 3.5e-13) == 2
    assert _support(np.zeros(4), 1e-16) == 0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n_atoms=st.integers(1, 256), g=st.floats(0.0, 0.5), alpha=st.floats(0.0, 4.0),
       k=st.integers(0, 4))
def test_cutoff_holds_the_states_it_is_sized_for(n_atoms, g, alpha, k):
    # the sector propagator moves a branch of radius alpha or a number
    # state k by at most 2 N g; both must pass the tail check on the ladder
    p = ModelParams(0.0, g, n_atoms)
    ncut = choose_cutoff(p, alpha, k)
    reach = 2.0 * n_atoms * g + alpha
    coherent_state(reach + math.sqrt(k), ncut)
    displaced_number_state(k, reach, ncut)


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
        ModelParams(-0.1, 0.1, 2)
    with pytest.raises(DomainError):
        ModelParams(0.0, 0.1, 0)


@pytest.mark.parametrize("field, value", [
    ("delta", math.nan), ("delta", math.inf), ("delta", None),
    ("g", math.nan), ("g", math.inf), ("g", -1e-300), ("g", "0.1"),
    ("n_atoms", math.nan), ("n_atoms", math.inf), ("n_atoms", None),
    ("n_atoms", 2.5), ("n_atoms", "4"), ("n_atoms", 0.0)])
def test_model_params_rejects_bad_value_as_domain_error(field, value):
    kwargs = {"delta": 0.0, "g": 0.1, "n_atoms": 2, field: value}
    with pytest.raises(DomainError, match=f"^{field} must be"):
        ModelParams(**kwargs)


def test_model_params_accepts_integral_reals():
    p = ModelParams(delta=np.float64(0.1), g=0, n_atoms=np.float64(3.0))
    assert p.n_atoms == 3 and type(p.n_atoms) is int
