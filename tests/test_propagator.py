"""Closed-form sector propagator: sector frames, cat/Fock evolution, asymptotics."""

import cmath
import math
import re

import numpy as np
import pytest
from conftest import coherent_closed, displacement_series_mp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermolim.errors import CutoffError, DomainError
from thermolim.fock import (
    FieldState,
    ModelParams,
    cat_state,
    choose_cutoff,
    coherent_state,
    displaced_number_state,
    displacement_matrix,
    overlap,
)
from thermolim.propagator import (
    _cat_centers,
    _require_kept,
    _sector_map,
    apply_uf_sector,
    asymptotic_branch_ratio,
    evolve_cat_grid,
    evolve_cat_leading,
    evolve_fock_grid,
    evolve_fock_leading,
    sector_frame,
)
from thermolim.wigner import WignerGrid, w_int_closed


def params_for(n_atoms, g, delta=0.0):
    return ModelParams(delta=delta, g=g, n_atoms=n_atoms)


def branch_phases(beta, alpha, phi):
    """The cat's branch phases alpha Im(beta e^{-+i phi}), from composing
    D[beta] with each branch's displacement."""
    return (alpha * (beta * cmath.exp(-1j * phi)).imag,
            alpha * (beta * cmath.exp(1j * phi)).imag)


# ---------------------------------------------------------------- frames

class TestFrame:
    # the extremal sector m = N, whose beta' = beta_N e^{-it} carries the cat
    def test_initial_time_is_identity(self):
        p = params_for(4, 0.3)
        xi, beta = sector_frame(4, p, t=0.0)
        assert xi == 0.0
        assert beta == 0.0
        assert beta * cmath.exp(-1j * 0.0) == 0.0
        assert branch_phases(beta, 2.0, 0.7) == (0.0, 0.0)

    def test_half_period_displacement_is_maximal(self):
        p = params_for(6, 0.2)
        _, beta = sector_frame(6, p, t=math.pi)
        assert beta == pytest.approx(2 * 6 * 0.2, abs=1e-12)
        assert abs(beta.imag) < 1e-12

    def test_full_period_leaves_pure_phase(self):
        # N=4, g=0.25: (Ng)^2 * 2*pi = 2*pi
        p = params_for(4, 0.25)
        xi, beta = sector_frame(4, p, t=2 * math.pi)
        assert abs(beta) < 1e-12
        assert xi == pytest.approx(2 * math.pi, rel=1e-12)

    def test_branch_phases_match_half_difference_form(self):
        # g = 0.17 and t = 0.3, 1.1, 2.9, 7.0 at omega = 1.3; the
        # composition phases are the ones evolve_cat_leading applies
        p = params_for(5, 0.17 / 1.3)
        alpha, phi = 2.2, 1.1
        ncut = choose_cutoff(p, alpha, 0)
        for t in [1.3 * 0.3, 1.3 * 1.1, 1.3 * 2.9, 1.3 * 7.0]:
            xi, beta = sector_frame(5, p, t)
            phi1, phi2 = branch_phases(beta, alpha, phi)
            alt1 = -1j * alpha * (beta * cmath.exp(-1j * phi)
                                  - beta.conjugate() * cmath.exp(1j * phi)) / 2
            alt2 = -1j * alpha * (beta * cmath.exp(1j * phi)
                                  - beta.conjugate() * cmath.exp(-1j * phi)) / 2
            assert abs(alt1.imag) < 1e-12 and abs(alt2.imag) < 1e-12
            assert phi1 == pytest.approx(alt1.real, abs=1e-10)
            assert phi2 == pytest.approx(alt2.real, abs=1e-10)
            bp = beta * cmath.exp(-1j * t)
            raw = cmath.exp(1j * xi) * (
                cmath.exp(1j * alt1.real)
                * coherent_state(bp + alpha * cmath.exp(1j * (phi - t)), ncut).amplitudes
                + cmath.exp(1j * alt2.real)
                * coherent_state(bp + alpha * cmath.exp(1j * (-phi - t)), ncut).amplitudes)
            np.testing.assert_allclose(
                evolve_cat_leading(p, alpha, phi, t, ncut).amplitudes,
                raw / np.linalg.norm(raw), rtol=0, atol=1e-10)

    def test_negative_time_rejected(self):
        # every closed form reads sector_frame, which is defined for t >= 0
        p = params_for(2, 0.1)
        grid = WignerGrid.empty(-1.0, 1.0, -1.0, 1.0, 0.25)
        for call in [lambda: sector_frame(2, p, -0.5),
                     lambda: evolve_cat_leading(p, 1.0, 0.0, -0.5, 20),
                     lambda: evolve_fock_leading(p, 1, -0.5, 20),
                     lambda: apply_uf_sector(coherent_state(0.5, 20), 0, p, -0.5),
                     lambda: w_int_closed(p, 1.0, 0.5, -0.5, grid)]:
            with pytest.raises(DomainError, match="t >= 0"):
                call()

    def test_branch_separation_scale_halves_with_doubled_n(self):
        # alpha / |beta(pi)| = alpha / (2 N g): slope -1 in N.
        alpha, g = 2.0, 0.25
        ns = np.array([2, 4, 8, 16, 32])
        ratios = []
        for n in ns:
            _, beta = sector_frame(int(n), params_for(int(n), g), t=math.pi)
            ratios.append(alpha / abs(beta))
        slope = np.polyfit(np.log(ns), np.log(ratios), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-12)


class TestSectorFrame:
    def test_null_sector_is_free(self):
        xi, beta = sector_frame(0, params_for(4, 0.5), t=1.7)
        assert xi == 0.0 and beta == 0.0

    def test_opposite_sector_mirrors_displacement(self):
        p = params_for(6, 0.23)
        xi_p, b_p = sector_frame(6, p, t=2.1)
        xi_m, b_m = sector_frame(-6, p, t=2.1)
        assert xi_m == pytest.approx(xi_p, rel=1e-14)
        assert b_m == pytest.approx(-b_p, abs=1e-14)

    def test_quarter_period_example(self):
        # m=2, g=0.3, t=pi/2: beta_m = 0.6*(1-i)
        xi, beta = sector_frame(2, params_for(4, 0.3), t=math.pi / 2)
        assert beta == pytest.approx(0.6 * (1 - 1j), abs=1e-12)
        assert xi == pytest.approx(0.36 * (math.pi / 2 - 1.0), rel=1e-12)

    @pytest.mark.parametrize("m", [1, -3, 6, 5])
    def test_invalid_eigenvalue_rejected(self, m):
        with pytest.raises(DomainError):
            sector_frame(m, params_for(4, 0.3), t=1.0)

    @pytest.mark.parametrize("m", [6, -6, 0])
    def test_array_times_match_scalar_calls(self, m):
        p = params_for(6, 0.23)
        times = np.array([0.0, 0.3, 1.7, math.pi, 2 * math.pi, 9.4])
        xis, betas = sector_frame(m, p, times)
        assert xis.shape == betas.shape == times.shape
        scalars = [sector_frame(m, p, t) for t in times.tolist()]
        assert all(isinstance(xi, float) and isinstance(b, complex) for xi, b in scalars)
        np.testing.assert_allclose(xis, [xi for xi, _ in scalars], rtol=1e-15, atol=0)
        np.testing.assert_allclose(betas, [b for _, b in scalars], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_array_with_a_bad_time_rejected(self, bad):
        # the check reads "every finite t >= 0", which a NaN fails as well
        p = params_for(4, 0.3)
        with pytest.raises(DomainError, match="t >= 0"):
            sector_frame(4, p, np.array([0.0, 1.0, bad]))
        with pytest.raises(DomainError, match="t >= 0"):
            sector_frame(4, p, bad)


class TestCatCenters:
    def test_centres_match_closed_geometry(self):
        n_atoms, g, alpha, phi = 6, 0.23, 1.7, 0.8
        times = np.linspace(0.0, 7.0, 15)
        got = _cat_centers(params_for(n_atoms, g), alpha, phi, times)
        assert got.shape == (2, times.size)
        for row, s in zip(got, (1, -1)):
            for t, center in zip(times.tolist(), row):
                _, _, bp = oracle_frame(n_atoms, g, t)
                want = bp + alpha * cmath.exp(1j * (s * phi - t))
                assert abs(center - want) <= 1e-15 * (abs(bp) + alpha)

    def test_initial_column_is_the_input_cat(self):
        alpha, phi = 2.0, 1.1
        got = _cat_centers(params_for(4, 0.3), alpha, phi, [0.0, 1.0])
        np.testing.assert_array_equal(got[:, 0], alpha * np.exp(1j * np.array([phi, -phi])))


# ------------------------------------------------------- sector propagator

class TestApplyUfSector:
    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan)])
    def test_nan_image_fails_the_lost_norm_check(self, bad):
        x = coherent_state(0.5, 20).amplitudes
        out = x.copy()
        out[3] = bad
        with pytest.raises(CutoffError, match="sector map lost nan"):
            _require_kept(x, out)

    def test_free_field_is_pure_rotation(self):
        # t = 0.9 at omega = 1.3
        p = params_for(4, 0.0)
        psi = coherent_state(1.5 + 0.5j, 40)
        out = apply_uf_sector(psi, 4, p, t=1.3 * 0.9)
        n = np.arange(41)
        expect = np.exp(-1j * (1.3 * 0.9) * n) * psi.amplitudes
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-12)

    def test_full_period_revival_up_to_phase(self):
        p = params_for(4, 0.25)
        psi, _ = cat_state(2.0, math.pi / 2, 60)
        out = apply_uf_sector(psi, 4, p, t=2 * math.pi)
        xi, _ = sector_frame(4, p, t=2 * math.pi)
        np.testing.assert_allclose(
            out.amplitudes, cmath.exp(1j * xi) * psi.amplitudes, atol=1e-9)

    def test_coherent_in_coherent_out(self):
        p = params_for(6, 0.2)
        gamma = 0.8 - 0.4j
        t = 1.9
        psi = coherent_state(gamma, 70)
        out = apply_uf_sector(psi, 6, p, t)
        xi, beta_m = sector_frame(6, p, t)
        expect = coherent_state((gamma + beta_m) * cmath.exp(-1j * t), 70)
        ov = overlap(expect, out)
        assert abs(ov) == pytest.approx(1.0, abs=1e-9)
        # the overlap phase is the sector phase plus the displacement
        # composition phase Im(beta_m * conj(gamma))
        want = cmath.exp(1j * (xi + (beta_m * gamma.conjugate()).imag))
        assert ov == pytest.approx(want, abs=1e-8)

    def test_norm_preserved_within_tolerance(self):
        p = params_for(8, 0.25)
        ncut = choose_cutoff(p, 2.0, 0)
        psi, _ = cat_state(2.0, math.pi / 2, ncut)
        out = apply_uf_sector(psi, 8, p, t=math.pi)
        assert abs(out.norm - 1.0) < 1e-9

    def test_matches_dense_displacement_product(self):
        # the square case of the map is bit-equal to the dense product
        p, t = params_for(8, 0.25), 2.3
        psi, _ = cat_state(2.0, 0.6, choose_cutoff(p, 2.0, 0))
        xi, beta = sector_frame(6, p, t)
        n = np.arange(psi.ncut + 1)
        dense = (cmath.exp(1j * xi) * np.exp(-1j * t * n)
                 * (displacement_matrix(psi.ncut, beta) @ psi.amplitudes))
        np.testing.assert_array_equal(apply_uf_sector(psi, 6, p, t).amplitudes, dense)

    @pytest.mark.parametrize("n_atoms, g, ncut, levels", [(64, 0.3, 1884, 43),
                                                          (1, 0.5, 24, 61)])
    def test_rectangular_map_matches_dense_block(self, n_atoms, g, ncut, levels):
        # the Dyson ladders at N = 64 (43 levels onto the 1885 of the lab
        # cutoff) and at N = 1 (61 levels onto 25): rows 0..ncut and
        # columns 0..levels-1 of the dense matrix
        p, t = params_for(n_atoms, g), math.pi
        assert choose_cutoff(p, 0.0, 0) == ncut
        rng = np.random.default_rng(7)
        x = rng.normal(size=levels) + 1j * rng.normal(size=levels)
        xi, beta = sector_frame(n_atoms, p, t)
        block = displacement_matrix(max(ncut, levels - 1), beta)[: ncut + 1, :levels]
        n = np.arange(ncut + 1)
        want = cmath.exp(1j * xi) * np.exp(-1j * t * n) * (block @ x)
        got = _sector_map(x, n_atoms, p, t, ncut)
        assert got.shape == (ncut + 1,)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_unnormalized_input_tail_budget_is_relative(self):
        # 1e-6 of |x|^2 in the top level of an input of squared norm about
        # 1e-4: the band holds 1e-10 in absolute terms, far more relative
        # to the state than the 1e-8 budget allows
        amps = np.zeros(41, complex)
        amps[0], amps[40] = 1.0, 1e-3
        psi = FieldState(1e-2 * amps, normalized=False)
        with pytest.raises(CutoffError, match="tail mass"):
            apply_uf_sector(psi, 4, params_for(4, 0.0), 0.9)

    def test_displacement_past_cutoff_raises(self):
        # sector 510 of N = 512 at g = 0.3 displaces the vacuum to
        # |beta| = 306 at t = pi, about 94 000 photons: nothing is left on
        # levels 0..674, not even in the tail band
        p = params_for(512, 0.3, delta=0.02)
        with pytest.raises(CutoffError, match="lost 1.000e\\+00"):
            apply_uf_sector(coherent_state(0.0, 674), 510, p, math.pi)


# ----------------------------------------------------- leading-order states

class TestEvolveCatLeading:
    def test_initial_time_recovers_cat(self):
        psi0, _ = cat_state(2.0, 0.9, 50)
        out = evolve_cat_leading(params_for(4, 0.3), 2.0, 0.9, 0.0, 50)
        assert abs(overlap(psi0, out)) == pytest.approx(1.0, abs=1e-10)

    def test_free_field_rotates_branches(self):
        p = params_for(4, 0.0)
        t = 1.2
        out = evolve_cat_leading(p, 2.0, 0.7, t, 50)
        # with g=0 the branches just rotate: alpha e^{+-i phi - i t}
        raw = (coherent_state(2.0 * cmath.exp(1j * (0.7 - t)), 50).amplitudes
               + coherent_state(2.0 * cmath.exp(1j * (-0.7 - t)), 50).amplitudes)
        raw /= np.linalg.norm(raw)
        np.testing.assert_allclose(out.amplitudes, raw, atol=1e-10)

    def test_matches_sector_propagator_on_truncated_cat(self):
        p = params_for(8, 0.25)
        alpha, phi, t = 2.0, math.pi / 2, 1.3
        ncut = choose_cutoff(p, alpha, 0)
        psi0, _ = cat_state(alpha, phi, ncut)
        via_op = apply_uf_sector(psi0, 8, p, t)
        closed = evolve_cat_leading(p, alpha, phi, t, ncut)
        ov = overlap(closed, via_op)
        assert abs(ov) == pytest.approx(1.0, abs=1e-9)
        # global phases included: the full complex overlap is 1
        assert ov == pytest.approx(1.0, abs=1e-8)

    def test_branch_sum_with_initial_norm_factor_stays_unit(self):
        # unitarity: the t=0 normalization constant keeps the branch sum
        # normalized at all times (branch overlap magnitude is conserved)
        p = params_for(6, 0.2)
        alpha, phi = 2.0, 1.0
        _, nrm = cat_state(alpha, phi, 60)
        for t in [0.4, 1.7, 3.0]:
            _, beta = sector_frame(6, p, t)
            phi1, phi2 = branch_phases(beta, alpha, phi)
            c1 = beta * cmath.exp(-1j * t) + alpha * cmath.exp(1j * (phi - t))
            c2 = beta * cmath.exp(-1j * t) + alpha * cmath.exp(1j * (-phi - t))
            raw = (cmath.exp(1j * phi1) * coherent_state(c1, 90).amplitudes
                   + cmath.exp(1j * phi2) * coherent_state(c2, 90).amplitudes)
            assert np.linalg.norm(raw) * nrm == pytest.approx(1.0, abs=1e-9)

    def test_cutoff_recommendation_keeps_tail_small(self):
        p = params_for(8, 0.25)
        alpha = 2.0
        ncut = choose_cutoff(p, alpha, 0)
        for t in [math.pi / 2, math.pi, 4.0]:
            out = evolve_cat_leading(p, alpha, math.pi / 2, t, ncut)
            assert out.tail_mass() < 1e-8


class TestEvolveFockLeading:
    def test_vacuum_component_only(self):
        p = params_for(4, 0.3)
        t = 1.1
        out = evolve_fock_leading(p, 0, t, 50)
        xi, beta = sector_frame(4, p, t)
        expect = coherent_state(beta * cmath.exp(-1j * t), 50)
        ov = overlap(expect, out)
        assert ov == pytest.approx(cmath.exp(1j * xi), abs=1e-10)

    def test_free_field_keeps_fock_weights(self):
        p = params_for(4, 0.0)
        k, t = 3, 0.8
        out = evolve_fock_leading(p, k, t, 30)
        expect = np.zeros(31, complex)
        expect[0] = 1 / math.sqrt(2)
        expect[k] = cmath.exp(-1j * k * t) / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-12)

    def test_matches_sector_propagator_on_superposition(self):
        p = params_for(8, 0.25)
        k = 2
        ncut = choose_cutoff(p, 0.0, k)
        amps = np.zeros(ncut + 1, complex)
        amps[0] = amps[k] = 1 / math.sqrt(2)
        psi0 = FieldState(amps)
        for t in [0.9, math.pi]:
            via_op = apply_uf_sector(psi0, 8, p, t)
            closed = evolve_fock_leading(p, k, t, ncut)
            assert overlap(closed, via_op) == pytest.approx(1.0, abs=1e-8)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            evolve_fock_leading(params_for(2, 0.1), -1, 1.0, 20)


# ------------------------------------------------- leading-order grid forms

def oracle_frame(n_atoms, g, t):
    """xi_N, beta_N and beta' = beta_N e^{-it} written out from the closed
    forms, not read from sector_frame."""
    r = n_atoms * g
    beta = r * (1 - cmath.exp(1j * t))
    return r * r * (t - math.sin(t)), beta, beta * cmath.exp(-1j * t)


def unit(v):
    return v / np.linalg.norm(v)


def band_mass(amps):
    """Probability above n = ncut - 8, the tail band for ncut <= 80."""
    return float(np.sum(np.abs(amps[amps.size - 8:]) ** 2))


# drawn grids start at t = 0; the examples add t = 2 pi (beta ~ 0), alpha = 0
# (a t = 0 row at the origin among moved rows) and g = 0 (every row there)
GRID_DRAWS = dict(n_atoms=st.integers(1, 16), g=st.floats(0.0, 0.5),
                  t_max=st.floats(0.1, 7.0), n_steps=st.integers(1, 3))


class TestLeadingGrids:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**GRID_DRAWS, alpha=st.floats(0.0, 3.0), phi=st.floats(0.0, math.pi))
    @example(n_atoms=4, g=0.25, t_max=2 * math.pi, n_steps=2, alpha=2.0, phi=1.2)
    @example(n_atoms=16, g=0.5, t_max=2 * math.pi, n_steps=3, alpha=3.0, phi=0.4)
    @example(n_atoms=3, g=0.3, t_max=1.0, n_steps=2, alpha=0.0, phi=0.7)
    @example(n_atoms=5, g=0.0, t_max=3.0, n_steps=2, alpha=1.5, phi=math.pi / 2)
    def test_cat_rows_match_closed_coherent_branches(self, n_atoms, g, t_max, n_steps,
                                                     alpha, phi):
        p = params_for(n_atoms, g)
        ncut = choose_cutoff(p, alpha, 0)
        times = np.linspace(0.0, t_max, n_steps + 1)
        rows = evolve_cat_grid(p, alpha, phi, times, ncut)
        assert len(rows) == times.size
        for t, row in zip(times, rows):
            xi, beta, bp = oracle_frame(n_atoms, g, t)
            want = sum(cmath.exp(1j * (xi + alpha * (beta * cmath.exp(-s * 1j * phi)).imag))
                       * coherent_closed(bp + alpha * cmath.exp(1j * (s * phi - t)), ncut)
                       for s in (1, -1))
            np.testing.assert_allclose(row.amplitudes, unit(want), rtol=0, atol=1e-12)
            assert row.normalized and row.ncut == ncut

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(**GRID_DRAWS, k=st.sampled_from([0, 1, 3]))
    @example(n_atoms=16, g=0.5, t_max=2 * math.pi, n_steps=2, k=3)
    @example(n_atoms=2, g=0.4, t_max=2 * math.pi, n_steps=1, k=1)
    @example(n_atoms=6, g=0.0, t_max=2.0, n_steps=2, k=3)
    def test_fock_rows_match_series_oracle(self, n_atoms, g, t_max, n_steps, k):
        p = params_for(n_atoms, g)
        ncut = choose_cutoff(p, 0.0, k)
        times = np.linspace(0.0, t_max, n_steps + 1)
        rows = evolve_fock_grid(p, k, times, ncut)
        assert len(rows) == times.size
        for t, row in zip(times, rows):
            xi, _, bp = oracle_frame(n_atoms, g, t)
            want = coherent_closed(bp, ncut)
            if k:
                col = [complex(displacement_series_mp(n, k, bp, dps=30))
                       for n in range(ncut + 1)]
                want = want + cmath.exp(-1j * k * t) * unit(np.array(col))
            np.testing.assert_allclose(row.amplitudes, cmath.exp(1j * xi) * unit(want),
                                       rtol=0, atol=1e-12)

    def test_origin_rows_are_exact_number_states(self):
        # beta' = 0 at t = 0: the recurrence reads 0.9999999999999997 for
        # <8|D[0]|8>, and renormalizing the row makes the branch |8> exactly
        p = params_for(4, 0.3)
        rows = evolve_fock_grid(p, 8, [0.0, 1.0], 60)
        want = np.zeros(61, complex)
        want[0] = want[8] = 1 / math.sqrt(2)
        np.testing.assert_array_equal(rows[0].amplitudes, want)

    @pytest.mark.parametrize("k", [None, 0, 3])
    def test_row_past_cutoff_raises_from_grid_call(self, k):
        # N = 4, g = 0.4 moves the field to beta' = -3.2 at t = pi: on 21
        # levels the rows at t = 0 and 0.1 fit and the one at pi does not;
        # the error names that row and its first branch's tail mass
        p = params_for(4, 0.4)
        _, _, bp = oracle_frame(4, 0.4, math.pi)
        if k is None:  # the cat; its first branch is centred at bp + e^{i(phi - t)}
            def grid(times):
                return evolve_cat_grid(p, 1.0, 0.5, times, 20)
            center = bp + cmath.exp(1j * (0.5 - math.pi))
        else:  # the Fock superposition; its first branch is |bp>
            def grid(times):
                return evolve_fock_grid(p, k, times, 20)
            center = bp
        grid([0.0, 0.1])
        tail = band_mass(coherent_closed(center, 20))
        with pytest.raises(CutoffError, match=re.escape(f"tail mass {tail:.3e} at row 2 ")):
            grid([0.0, 0.1, math.pi])

    def test_one_time_forms_are_grid_rows(self):
        # a row does not depend on the rows stacked beside it
        p = params_for(6, 0.2)
        times = [0.0, 0.7, 2.5]
        cats = evolve_cat_grid(p, 1.5, 0.8, times, 60)
        focks = evolve_fock_grid(p, 2, times, 60)
        for t, cat, fock_row in zip(times, cats, focks):
            np.testing.assert_array_equal(evolve_cat_leading(p, 1.5, 0.8, t, 60).amplitudes,
                                          cat.amplitudes)
            np.testing.assert_array_equal(evolve_fock_leading(p, 2, t, 60).amplitudes,
                                          fock_row.amplitudes)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            evolve_cat_grid(params_for(2, 0.1), 1.0, 0.5, [0.0, -0.1], 20)


# ------------------------------------------------------------- asymptotics

class TestAsymptoticBranchRatio:
    def test_vacuum_branch_is_exactly_coherent(self):
        for n in range(6):
            assert asymptotic_branch_ratio(0, n, 3.7 - 0.2j) == 1.0

    def test_large_displacement_limit(self):
        # k=2, n=3: within 5% of unity once |beta'| reaches 20
        r = asymptotic_branch_ratio(2, 3, 20.0)
        assert abs(r - 1.0) <= 0.05

    def test_deviation_shrinks_monotonically(self):
        devs = [abs(asymptotic_branch_ratio(2, 3, b) - 1.0)
                for b in [5.0, 10.0, 20.0, 40.0]]
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_matches_directly_formed_amplitude_ratio(self):
        # moderate arguments where both sides are safely representable
        ncut = 60
        for bp in [1.5, 2.0 + 1.0j, 3.0j]:
            for k, n in [(1, 0), (1, 4), (2, 3), (3, 3), (4, 2)]:
                disp = displaced_number_state(k, bp, ncut).amplitudes[n]
                coh = coherent_state(bp, ncut).amplitudes[n]
                surrogate = (-np.conjugate(bp)) ** k / math.sqrt(math.factorial(k))
                want = disp / (surrogate * coh)
                got = asymptotic_branch_ratio(k, n, bp)
                assert got == pytest.approx(want, rel=1e-9), (k, n, bp)

    def test_depends_only_on_magnitude(self):
        a = asymptotic_branch_ratio(2, 5, 4.0)
        b = asymptotic_branch_ratio(2, 5, 4.0 * cmath.exp(0.83j))
        assert a == pytest.approx(b, rel=1e-14)

    def test_indeterminate_at_origin(self):
        with pytest.raises(DomainError):
            asymptotic_branch_ratio(2, 3, 0.0)
        with pytest.raises(DomainError):
            asymptotic_branch_ratio(0, 3, 0.0)
        assert asymptotic_branch_ratio(0, 0, 0.0) == 1.0

    def test_negative_indices_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_branch_ratio(-1, 2, 1.0)
        with pytest.raises(DomainError):
            asymptotic_branch_ratio(2, -2, 1.0)
