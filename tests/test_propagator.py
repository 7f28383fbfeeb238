"""Closed-form sector propagator: frames, cat/Fock evolution, asymptotics."""

import cmath
import math

import numpy as np
import pytest

from thermolim.errors import DomainError
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
    _sector_map,
    apply_uf_sector,
    asymptotic_branch_ratio,
    evolve_cat_leading,
    evolve_fock_leading,
    frame,
    sector_frame,
)


def params_for(n_atoms, g, delta=0.0):
    return ModelParams(delta=delta, g=g, n_atoms=n_atoms)


# ---------------------------------------------------------------- frames

class TestFrame:
    def test_initial_time_is_identity(self):
        fr = frame(params_for(4, 0.3), alpha=2.0, phi=0.7, t=0.0)
        assert fr.xi == 0.0
        assert fr.beta == 0.0
        assert fr.beta_prime == 0.0
        assert fr.phi1 == 0.0 and fr.phi2 == 0.0

    def test_half_period_displacement_is_maximal(self):
        p = params_for(6, 0.2)
        fr = frame(p, alpha=1.0, phi=0.0, t=math.pi)
        assert fr.beta == pytest.approx(2 * 6 * 0.2, abs=1e-12)
        assert abs(fr.beta.imag) < 1e-12

    def test_full_period_leaves_pure_phase(self):
        # N=4, g=0.25: (Ng)^2 * 2*pi = 2*pi
        p = params_for(4, 0.25)
        fr = frame(p, alpha=1.5, phi=0.3, t=2 * math.pi)
        assert abs(fr.beta) < 1e-12
        assert fr.xi == pytest.approx(2 * math.pi, rel=1e-12)

    def test_branch_phases_match_half_difference_form(self):
        # g = 0.17 and t = 0.3, 1.1, 2.9, 7.0 at omega = 1.3
        p = params_for(5, 0.17 / 1.3)
        for t in [1.3 * 0.3, 1.3 * 1.1, 1.3 * 2.9, 1.3 * 7.0]:
            fr = frame(p, alpha=2.2, phi=1.1, t=t)
            alt1 = -1j * 2.2 * (fr.beta * cmath.exp(-1j * 1.1)
                                - fr.beta.conjugate() * cmath.exp(1j * 1.1)) / 2
            alt2 = -1j * 2.2 * (fr.beta * cmath.exp(1j * 1.1)
                                - fr.beta.conjugate() * cmath.exp(-1j * 1.1)) / 2
            assert abs(alt1.imag) < 1e-12 and abs(alt2.imag) < 1e-12
            assert fr.phi1 == pytest.approx(alt1.real, abs=1e-10)
            assert fr.phi2 == pytest.approx(alt2.real, abs=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            frame(params_for(2, 0.1), alpha=1.0, phi=0.0, t=-0.5)

    def test_branch_separation_scale_halves_with_doubled_n(self):
        # alpha / |beta(pi)| = alpha / (2 N g): slope -1 in N.
        alpha, g = 2.0, 0.25
        ns = np.array([2, 4, 8, 16, 32])
        ratios = []
        for n in ns:
            fr = frame(params_for(int(n), g), alpha=alpha, phi=0.0, t=math.pi)
            ratios.append(alpha / abs(fr.beta))
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


# ------------------------------------------------------- sector propagator

class TestApplyUfSector:
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
            fr = frame(p, alpha, phi, t)
            c1 = fr.beta_prime + alpha * cmath.exp(1j * (phi - t))
            c2 = fr.beta_prime + alpha * cmath.exp(1j * (-phi - t))
            raw = (cmath.exp(1j * fr.phi1) * coherent_state(c1, 90).amplitudes
                   + cmath.exp(1j * fr.phi2) * coherent_state(c2, 90).amplitudes)
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
        fr = frame(p, 0.0, 0.0, t)
        expect = coherent_state(fr.beta_prime, 50)
        ov = overlap(expect, out)
        assert ov == pytest.approx(cmath.exp(1j * fr.xi), abs=1e-10)

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
