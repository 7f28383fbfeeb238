"""Exact evolver: Hamiltonian construction, checked exponential
stepping, sector projections, and the referee comparisons against
closed forms."""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bessel_tail_bound,
    csr_hamiltonian,
    leaky_bessel_table,
    product_space_hamiltonian,
    short_bessel_window,
    symmetric_sector_embedding,
)
from thermolim import evolver
from thermolim.errors import (
    CapacityError,
    CutoffError,
    DomainError,
    IntegrationError,
)
from thermolim.evolver import (
    JointState,
    build_hamiltonian,
    evolve_exact,
    evolve_grid,
    expm_checked,
    fidelity,
    project_chi,
)
from thermolim.fock import (
    FieldState,
    ModelParams,
    _bessel_window,
    cat_state,
    choose_cutoff,
    coherent_state,
)
from thermolim.harness import ScenarioConfig, run_scenario
from thermolim.propagator import evolve_cat_leading
from thermolim.spins import CollectiveState, chi_prime_state, chi_state


# two study grids the engine serves, and on each the intervals in a segment
# of one Chebyshev series and the products with H the whole grid takes
STUDY_GRIDS = [{"study": "cat", "n_atoms": 16},
               {"study": "convergence", "n_atoms": 8, "delta": 0.02}]
SEGMENTS = {"cat": (4, 1324), "convergence": (8, 596)}


@contextlib.contextmanager
def recorded_tables():
    """Record (x, last) of each Bessel table the engine builds."""
    tables, table = [], evolver._bessel_table

    def recording_table(x, last):
        tables.append((x, last))
        return table(x, last)

    with mock.patch.object(evolver, "_bessel_table", recording_table):
        yield tables


def params_for(n_atoms, g, delta=0.0):
    return ModelParams(delta=delta, g=g, n_atoms=n_atoms)


def cat_chi_initial(params, alpha, phi, ncut):
    psi, _ = cat_state(alpha, phi, ncut)
    return JointState.from_product(psi, chi_state(params.n_atoms), params)


def sector_probabilities(state):
    """Weight of each sigma-x sector (column) of a joint state."""
    return np.sum(np.abs(state.amplitudes) ** 2, axis=0)


def energy(state, h):
    v = state.vector()
    return float(np.real(np.vdot(v, h @ v)))


# ------------------------------------------------------------- hamiltonian

class TestBuildHamiltonian:
    def test_single_atom_matches_product_transcription(self):
        # delta = 0.4 and g = 0.27 at omega = 1.3
        p = ModelParams(delta=0.4 / 1.3, g=0.27 / 1.3, n_atoms=1)
        spec = build_hamiltonian(p, 12)
        oracle = product_space_hamiltonian(0.4 / 1.3, 0.27 / 1.3, 1, 12)
        np.testing.assert_allclose(spec.matrix.toarray(), oracle.real, atol=1e-14)

    def test_free_spectrum_is_harmonic(self):
        # levels 0.7 n at omega = 0.7 are n in units of omega
        p = params_for(3, 0.0, delta=0.0)
        spec = build_hamiltonian(p, 10)
        evals = np.sort(np.linalg.eigvalsh(spec.matrix.toarray()))
        want = np.sort(np.tile(np.arange(11), 4))
        np.testing.assert_allclose(evals, want, atol=1e-12)

    def test_ground_energy_matches_dense_oracle(self):
        p = ModelParams(delta=0.35, g=0.2, n_atoms=2)
        spec = build_hamiltonian(p, 30)
        mine = np.linalg.eigvalsh(spec.matrix.toarray())[0]
        oracle = np.linalg.eigvalsh(product_space_hamiltonian(0.35, 0.2, 2, 30))[0]
        assert mine == pytest.approx(oracle.real, abs=1e-10)

    def test_exactly_symmetric(self):
        # delta = 0.3 and g = 0.21 at omega = 1.1
        spec = build_hamiltonian(ModelParams(delta=0.3 / 1.1, g=0.21 / 1.1, n_atoms=5), 25)
        dense = spec.matrix.toarray()
        assert np.array_equal(dense, dense.T)

    def test_block_diagonal_without_splitting(self):
        spec = build_hamiltonian(params_for(4, 0.3), 12)
        row, col = np.nonzero(spec.matrix.toarray())
        # sector-major storage: index // (ncut+1) is the sector
        assert np.array_equal(row // 13, col // 13)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 6), delta=st.floats(0.0, 0.5), g=st.floats(0.0, 0.5),
           ncut=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
    @example(n_atoms=2, delta=0.0, g=0.0, ncut=4, seed=0)
    @example(n_atoms=4, delta=0.3, g=1.18e-160, ncut=12, seed=1)
    def test_matches_csr_oracle(self, n_atoms, delta, g, ncut, seed):
        p = ModelParams(delta=delta, g=g, n_atoms=n_atoms)
        h, oracle = build_hamiltonian(p, ncut).matrix, csr_hamiltonian(p, ncut)
        dense = oracle.toarray()
        assert np.array_equal(h.toarray(), dense)
        assert h.nnz == oracle.nnz and isinstance(h.nnz, int) and h.shape == oracle.shape
        rng = np.random.default_rng(seed)
        x = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
        scale = np.linalg.norm(dense, 2) * np.linalg.norm(x)
        assert np.linalg.norm(h @ x - oracle @ x) <= 1e-14 * scale
        radius = np.asarray(abs(oracle).sum(axis=1)).ravel() - np.abs(oracle.diagonal())
        want = (np.min(oracle.diagonal() - radius), np.max(oracle.diagonal() + radius))
        np.testing.assert_allclose(h.bounds(), want, rtol=1e-15, atol=1e-15)

    def test_sector_restriction_matches_oracle_block(self):
        p = params_for(4, 0.3)
        occupied = np.array([True, False, True, True, False])
        rows = np.repeat(occupied, 13)
        sub = build_hamiltonian(p, 12).matrix.sectors(occupied)
        want = csr_hamiltonian(p, 12)[rows][:, rows]
        assert np.array_equal(sub.toarray(), want.toarray()) and sub.nnz == want.nnz
        with pytest.raises(DomainError, match="splitting"):
            build_hamiltonian(params_for(4, 0.3, delta=0.1), 12).matrix.sectors(occupied)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_hamiltonian(params_for(99, 0.1), 20000)

    def test_small_cutoff_rejected(self):
        with pytest.raises(DomainError):
            build_hamiltonian(params_for(2, 0.1), 3)


# ------------------------------------------------------------- joint state

class TestJointState:
    def test_product_construction_is_normalized(self):
        p = params_for(4, 0.2)
        st = cat_chi_initial(p, 1.5, 0.8, 40)
        assert st.norm == pytest.approx(1.0, abs=1e-12)
        probs = sector_probabilities(st)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_norm_guard(self):
        p = params_for(2, 0.1)
        with pytest.raises(DomainError):
            JointState(np.ones((10, 3)), p)

    def test_vector_roundtrip_is_sector_major(self):
        p = params_for(2, 0.1)
        amps = np.zeros((6, 3), complex)
        amps[2, 1] = 1.0
        st = JointState(amps, p)
        vec = st.vector()
        assert vec[1 * 6 + 2] == 1.0
        back = JointState.from_vector(vec, p)
        np.testing.assert_array_equal(back.amplitudes, amps)

    def test_tail_band_matches_field_state(self):
        # at ncut 181 the band is n > 181 - 18.1, so row 163 is in it
        p = params_for(2, 0.1)
        amps = np.zeros((182, 3), complex)
        amps[0, 0] = math.sqrt(1 - 1e-6)
        amps[163, 2] = 1e-3
        st = JointState(amps, p)
        assert st.field_marginal().tail_mass() == pytest.approx(1e-6, rel=1e-12)


# --------------------------------------------------------------- evolution

class TestEvolveExact:
    def test_zero_time_is_identity(self):
        p = params_for(2, 0.2, delta=0.3)
        st = cat_chi_initial(p, 1.0, 0.5, 20)
        out = evolve_exact(st, 0.0)
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)

    def test_split_off_sectors_match_leading_order(self):
        # with the splitting off the sector propagator is exact
        for n in (2, 4):
            p = params_for(n, 0.25)
            ncut = choose_cutoff(p, 2.0, 0)
            st = cat_chi_initial(p, 2.0, math.pi / 2, ncut)
            for t in (1.3, math.pi):
                out = evolve_exact(st, t)
                proj = project_chi(out, chi_state(n))
                lead = evolve_cat_leading(p, 2.0, math.pi / 2, t, ncut)
                assert fidelity(proj, lead) >= 1 - 1e-8

    def test_matches_product_space_referee(self):
        # N<=3: full 2^N-basis expm oracle, including the embedding map
        n, ncut, t = 3, 30, 1.1
        p = ModelParams(delta=0.4, g=0.3, n_atoms=n)
        st = cat_chi_initial(p, 0.8, 0.9, ncut)
        out = evolve_exact(st, t)
        emb = symmetric_sector_embedding(n, ncut)
        h_full = product_space_hamiltonian(0.4, 0.3, n, ncut)
        u = scipy.linalg.expm(-1j * t * h_full)
        oracle = u @ (emb @ st.vector())
        np.testing.assert_allclose(emb @ out.vector(), oracle, atol=1e-10)
        # the splitting links every sector to its neighbours: from chi
        # alone, every sector was propagated and carries amplitude
        assert np.all(np.any(out.amplitudes != 0, axis=0))

    def test_split_off_nonadjacent_sectors_match_product_space_referee(self):
        # Delta = 0 with amplitude in sectors 0 and 2 only: the restricted
        # propagation must still match the 2^N oracle and leave 1 and 3 empty
        n, ncut, t = 3, 30, 1.1
        p = ModelParams(delta=0.0, g=0.3, n_atoms=n)
        spin = CollectiveState(np.array([0.6, 0.0, 0.8j, 0.0]))
        st = JointState.from_product(coherent_state(0.8 * np.exp(0.9j), ncut), spin, p)
        out = evolve_exact(st, t)
        emb = symmetric_sector_embedding(n, ncut)
        u = scipy.linalg.expm(-1j * t * product_space_hamiltonian(0.0, 0.3, n, ncut))
        np.testing.assert_allclose(emb @ out.vector(), u @ (emb @ st.vector()), atol=1e-10)
        np.testing.assert_array_equal(out.amplitudes[:, [1, 3]], 0)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n_atoms=st.integers(1, 4), g=st.floats(0.0, 0.2),
           alpha=st.complex_numbers(max_magnitude=1.0), t=st.floats(0.0, 5.0))
    def test_split_off_matches_dense_expm_on_occupied_sectors(self, data, n_atoms,
                                                             g, alpha, t):
        p = ModelParams(delta=0.0, g=g, n_atoms=n_atoms)
        ncut = choose_cutoff(p, abs(alpha), 0)
        assert ncut <= 40
        occupied = sorted(data.draw(st.sets(st.integers(0, n_atoms), min_size=1)))
        amps = np.zeros(n_atoms + 1, dtype=complex)
        amps[occupied] = data.draw(st.lists(
            st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
            min_size=len(occupied), max_size=len(occupied)))
        spin = CollectiveState(amps / np.linalg.norm(amps))
        st0 = JointState.from_product(coherent_state(alpha, ncut), spin, p)
        out = evolve_exact(st0, t)
        h = build_hamiltonian(p, ncut).matrix
        want = scipy.linalg.expm(-1j * t * h.toarray()) @ st0.vector()
        np.testing.assert_allclose(out.vector(), want, rtol=0, atol=1e-10)
        empty = np.setdiff1d(np.arange(n_atoms + 1), occupied)
        np.testing.assert_array_equal(out.amplitudes[:, empty], 0)

    def test_energy_conserved(self):
        p = ModelParams(delta=0.3, g=0.25, n_atoms=4)
        ncut = choose_cutoff(p, 2.0, 0)
        h = build_hamiltonian(p, ncut).matrix
        st = cat_chi_initial(p, 2.0, math.pi / 2, ncut)
        e0 = energy(st, h)
        out = evolve_exact(st, 2.7)
        assert energy(out, h) == pytest.approx(e0, rel=1e-8)

    def test_sector_occupations_frozen_without_splitting(self):
        p = params_for(3, 0.2)
        ncut = 40
        spin = CollectiveState(np.array([0.5, 0.5, 0.5, 0.5]))
        st = JointState.from_product(coherent_state(1.0, ncut), spin, p)
        before = sector_probabilities(st)
        after = sector_probabilities(evolve_exact(st, 2.0))
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_splitting_leakage_scales_quadratically(self):
        p0 = params_for(4, 0.25)
        ncut = choose_cutoff(p0, 2.0, 0)
        deltas = [0.0125, 0.025, 0.05]
        deficits = []
        for d in deltas:
            p = ModelParams(delta=d, g=0.25, n_atoms=4)
            st = cat_chi_initial(p, 2.0, math.pi / 2, ncut)
            out = evolve_exact(st, math.pi)
            proj = project_chi(out, chi_state(4))
            deficits.append(1.0 - float(np.linalg.norm(proj.amplitudes)) ** 2)
        slope = np.polyfit(np.log(deltas), np.log(deficits), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_leading_order_error_is_small_but_not_monotone_in_n(self):
        # the closed form stays within 1e-4 infidelity at Delta=0.05
        # out to N=16, but the error does NOT fall monotonically with N:
        # it grows from N=2 to N=8 before turning over
        infids = {}
        for n in (2, 8):
            p = ModelParams(delta=0.05, g=0.25, n_atoms=n)
            ncut = choose_cutoff(p, 2.0, 0)
            st = cat_chi_initial(p, 2.0, math.pi / 2, ncut)
            out = evolve_exact(st, math.pi)
            proj = project_chi(out, chi_state(n))
            lead = evolve_cat_leading(p, 2.0, math.pi / 2, math.pi, ncut)
            infids[n] = 1.0 - fidelity(proj, lead)
        assert all(v < 1e-4 for v in infids.values())
        assert infids[2] < infids[8]

    @pytest.mark.parametrize("n_atoms, delta, steps", [(16, 0.0, 16), (2, 0.3, 200)])
    def test_grid_matches_step_by_step_chain(self, n_atoms, delta, steps):
        # One grid call against a chain of single checked steps, in both of
        # the engine's grid regimes: the cat at N = 16 (r dt = 59.7) runs
        # four segments of four intervals on its occupied sector; N = 2 at
        # Delta = 0.3 (r dt = 0.81) reads all 200 points off one series.
        p = params_for(n_atoms, 0.25, delta=delta)
        ncut = choose_cutoff(p, 2.0, 0)
        state = cat_chi_initial(p, 2.0, math.pi / 2, ncut)
        t = 2 * math.pi
        grid = list(evolve_grid(state, t, steps))
        assert len(grid) == steps + 1
        assert np.array_equal(grid[0].amplitudes, state.amplitudes)
        for point in grid[1:]:
            state = evolve_exact(state, t / steps)
            assert np.linalg.norm(point.amplitudes - state.amplitudes) <= 1e-12

    def test_grid_rejects_empty_grid(self):
        p = params_for(2, 0.2)
        st = cat_chi_initial(p, 1.0, 0.5, 20)
        with pytest.raises(DomainError, match="steps"):
            next(evolve_grid(st, 1.0, 0))

    @pytest.mark.parametrize("delta", [0.0, 0.4])
    def test_nonconvergence_raises_with_diagnostics(self, monkeypatch, delta):
        # a Bessel window cut short truncates: its tail bound raises
        # before any product, so the norm check, which real truncation
        # trips too, never runs; Bessel values shrunk by 1e-6 leak norm
        # per interval with the window intact; both must raise with
        # diagnostics, on the occupied-sector path (Delta = 0) as on the
        # full one
        p = ModelParams(delta=delta, g=0.3, n_atoms=4)
        st = cat_chi_initial(p, 1.5, 0.7, 30)
        with monkeypatch.context() as patch:
            patch.setattr(evolver, "_bessel_window", short_bessel_window)
            with pytest.raises(IntegrationError, match="truncation") as err:
                evolve_exact(st, 6.0)
        assert err.value.diagnostics["error_estimate"] > 1e-8
        assert "drift" not in err.value.diagnostics
        with monkeypatch.context() as patch:
            patch.setattr(evolver, "_bessel_table", leaky_bessel_table)
            with pytest.raises(IntegrationError, match="norm drift") as err:
                evolve_exact(st, 6.0)
        assert err.value.diagnostics["drift"] > 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 4), delta=st.floats(0.0, 0.5), g=st.floats(0.0, 0.5),
           ncut=st.integers(4, 40), steps=st.integers(1, 3), t=st.floats(0.0, 40.0),
           seed=st.integers(0, 2**32 - 1))
    # r t = 999 in one interval, about the cat study's N = 16 grid
    # (r = 152, t = 2 pi) taken as one step
    @example(n_atoms=4, delta=0.5, g=0.5, ncut=40, steps=1, t=28.7, seed=0)
    # r dt = 66.0 and 71.1: a segment of four intervals and a remainder of
    # three, four segments of three and a remainder of one
    @example(n_atoms=2, delta=0.3, g=0.25, ncut=40, steps=7, t=20.0, seed=0)
    @example(n_atoms=2, delta=0.3, g=0.25, ncut=40, steps=13, t=40.0, seed=0)
    # r dt = 3.85: three segments of 52 intervals and a remainder of 44
    @example(n_atoms=1, delta=0.5, g=0.5, ncut=12, steps=200, t=100.0, seed=0)
    # r dt = 333 >= 200: one series per interval, one table
    @example(n_atoms=4, delta=0.5, g=0.5, ncut=40, steps=3, t=28.7, seed=0)
    def test_engine_matches_dense_expm(self, n_atoms, delta, g, ncut, steps, t, seed):
        h = build_hamiltonian(ModelParams(delta=delta, g=g, n_atoms=n_atoms), ncut).matrix
        rng = np.random.default_rng(seed)
        v = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
        v /= np.linalg.norm(v)
        with recorded_tables() as tables:
            out, err = expm_checked(t, h, v, steps)
        lo, hi = h.bounds()
        if (hi - lo) / 2 * t / steps >= 200:
            assert len(tables) == 1
        assert out.shape == (steps + 1, v.size) and err.shape == (steps + 1,)
        for k, row in enumerate(out):
            want = scipy.linalg.expm(-1j * (k * t / steps) * h.toarray()) @ v
            assert np.linalg.norm(row - want) <= 1e-12
        assert err[0] == 0 and err.max() <= 1e-8

    def test_fine_grid_segments_stay_within_table_budget(self):
        # 10000 intervals of r dt = 2.5e-4 fit in one segment by their
        # argument; the 4 MB coefficient table caps it at 5461, and a
        # remainder segment of 4539 follows.  Points on both sides of the
        # segment edge match dense expm
        h = build_hamiltonian(params_for(1, 0.25, delta=0.3), 4).matrix
        v = np.zeros(h.shape[0], dtype=complex)
        v[0] = 1
        with recorded_tables() as tables:
            out, err = expm_checked(1.0, h, v, 10000)
        span = len(tables)
        assert 1 < span < 10000
        assert 16 * span * (_bessel_window(tables[-1][0]) + 1) <= 1 << 22
        for k in (1, span, span + 1, 10000):
            want = scipy.linalg.expm(-1j * (k / 10000) * h.toarray()) @ v
            assert np.linalg.norm(out[k] - want) <= 1e-12
        assert err.max() <= 1e-8

    @pytest.mark.parametrize("config", STUDY_GRIDS)
    def test_estimate_measures_truncation_on_study_grids(self, monkeypatch, tmp_path,
                                                         config):
        # the Bessel tail bound is tiny but not zero: 2.0e-31 to 1.4e-24
        # over the cat grid, 1.5e-36 to 1.7e-25 over convergence's.  A
        # segment of `span` intervals sums point j to the window of
        # x = j r dt, one table each; the estimate at a point is the one at
        # its segment's start plus scipy's bound past that window
        seen, engine = [], evolver.expm_checked

        def recording(t, h, v, steps=1):
            out, err = engine(t, h, v, steps)
            lo, hi = h.bounds()
            seen.append(((hi - lo) / 2 * t / steps, err))
            return out, err

        monkeypatch.setattr(evolver, "expm_checked", recording)
        with recorded_tables() as tables:
            run_scenario(ScenarioConfig.from_mapping(config, out_dir=str(tmp_path)))
        [(x, err)], (span, _) = seen, SEGMENTS[config["study"]]
        assert len(tables) == span
        for j, (xj, last) in enumerate(tables, 1):
            assert xj == pytest.approx(j * x, rel=1e-15)
            assert last == _bessel_window(xj) + 2
        assert err.shape == (17,) and err[0] == 0
        assert np.all(np.diff(err) > 0) and err[-1] <= 1e-8
        tail = [bessel_tail_bound(xj, last - 2) for xj, last in tables]
        want = [0.0]
        for k in range(1, 17):
            start = (k - 1) // span * span
            want.append(want[start] + tail[k - start - 1])
        np.testing.assert_allclose(err, want, rtol=1e-6)

    @pytest.mark.parametrize("config", STUDY_GRIDS)
    def test_products_on_study_grids(self, monkeypatch, tmp_path, config):
        # one series per segment: 4 x 331 products on the cat grid
        # (r dt = 59.7, segments of 4) and 2 x 298 on convergence's
        # (r dt = 26.0, segments of 8), where one series per interval
        # takes 16 x 129 = 2064 and 16 x 86 = 1376
        count, apply = [0], evolver.Hamiltonian.apply

        def counting(self, u, out, scratch):
            count[0] += 1
            apply(self, u, out, scratch)

        monkeypatch.setattr(evolver.Hamiltonian, "apply", counting)
        run_scenario(ScenarioConfig.from_mapping(config, out_dir=str(tmp_path)))
        assert count[0] == SEGMENTS[config["study"]][1]

    def test_long_interval_matches_fine_grid(self):
        # r t = 2865 in one interval: the tail past the window is 3.6e-19,
        # and the state agrees with a 32-interval run
        p = params_for(16, 0.25)
        ncut = choose_cutoff(p, 2.0, 0)
        st = cat_chi_initial(p, 2.0, 1.2, ncut)
        t = 6 * math.pi
        *_, fine = evolve_grid(st, t, 32)
        out = evolve_exact(st, t)
        assert np.linalg.norm(out.amplitudes - fine.amplitudes) <= 1e-11

    def test_state_driven_past_cutoff_raises(self):
        # at t = pi sector 0 is displaced by 2 N g = 3.2, to about
        # 18 photons: the top of a 20-level ladder
        p = params_for(4, 0.4)
        st = JointState.from_product(coherent_state(1.0, 20), chi_state(4), p)
        with pytest.raises(CutoffError, match="tail mass"):
            evolve_exact(st, math.pi)

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_tail_checked_at_every_time(self, t):
        # 8 of 12 equal levels sit in the band n > 11 - 8: every yielded
        # state, the one at t = 0 included, fails the tail check
        p = params_for(2, 0.1)
        st = JointState.from_product(FieldState(np.ones(12) / math.sqrt(12)), chi_state(2), p)
        with pytest.raises(CutoffError, match="tail mass"):
            evolve_exact(st, t)
        with pytest.raises(CutoffError, match="tail mass"):
            list(evolve_grid(st, t, 3))
        with pytest.raises(CutoffError, match="tail mass"):
            next(evolve_grid(st, t, 3))  # the first point, at t = 0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 4), delta=st.floats(0.0, 0.5), g=st.floats(0.0, 0.2),
           alpha=st.complex_numbers(max_magnitude=1.0),
           spin=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=5, max_size=5),
           t=st.floats(0.0, 5.0))
    def test_norm_conserved_on_random_models(self, n_atoms, delta, g, alpha, spin, t):
        p = ModelParams(delta=delta, g=g, n_atoms=n_atoms)
        ncut = choose_cutoff(p, abs(alpha), 0)
        assert ncut <= 40
        amps = np.array(spin[: n_atoms + 1]) + 2 * np.eye(n_atoms + 1)[0]
        spin_state = CollectiveState(amps / np.linalg.norm(amps))
        st0 = JointState.from_product(coherent_state(alpha, ncut), spin_state, p)
        out = evolve_exact(st0, t)
        assert abs(out.norm - 1.0) <= 1e-9

    def test_subnormal_coupling_is_free_rotation(self):
        # g = 1.18e-160 leaves subnormal entries in H; the checked result
        # is still the free rotation |alpha e^{-i t}> as at g = 0
        # (g = 2.36e-160 and t = 3 at omega = 2)
        p = ModelParams(delta=0.0, g=1.18e-160, n_atoms=1)
        ncut = choose_cutoff(p, 1.0, 0)
        st0 = JointState.from_product(coherent_state(1.0, ncut), chi_state(1), p)
        out = evolve_exact(st0, 6.0)
        want = coherent_state(np.exp(-6j), ncut)
        got = project_chi(out, chi_state(1))
        np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)

    def test_negative_time_rejected(self):
        p = params_for(2, 0.2)
        st = cat_chi_initial(p, 1.0, 0.5, 20)
        with pytest.raises(DomainError):
            evolve_exact(st, -1.0)


# -------------------------------------------------------------- projection

class TestProjectChi:
    def test_initial_projection_recovers_field(self):
        p = params_for(4, 0.2)
        psi, _ = cat_state(1.5, 0.8, 40)
        st = JointState.from_product(psi, chi_state(4), p)
        proj = project_chi(st, chi_state(4))
        np.testing.assert_allclose(proj.amplitudes, psi.amplitudes, atol=1e-12)
        assert np.linalg.norm(proj.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_sector_is_empty(self):
        p = params_for(4, 0.2)
        st = JointState.from_product(coherent_state(1.0, 30), chi_state(4), p)
        proj = project_chi(st, chi_prime_state(4))
        assert np.linalg.norm(proj.amplitudes) == 0.0

    def test_leakage_norm_is_sector_probability(self):
        p = ModelParams(delta=0.1, g=0.25, n_atoms=2)
        ncut = choose_cutoff(p, 1.0, 0)
        st = cat_chi_initial(p, 1.0, 0.4, ncut)
        out = evolve_exact(st, 2.0)
        amp = float(np.linalg.norm(project_chi(out, chi_prime_state(2)).amplitudes))
        assert 0 < amp < 1
        # chi and chi' plus the remaining sectors exhaust the norm
        total = sum(
            float(np.linalg.norm(project_chi(out, basis_state).amplitudes)) ** 2
            for basis_state in (chi_state(2), chi_prime_state(2))
        )
        assert total <= 1.0 + 1e-12


# ---------------------------------------------------------------- fidelity

class TestFidelity:
    def test_self_fidelity(self):
        s = coherent_state(1.3, 30)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_fock_states(self):
        a = FieldState(np.eye(10, 1, dtype=complex).ravel())
        amps = np.zeros(10, complex)
        amps[1] = 1.0
        assert fidelity(a, FieldState(amps)) == 0.0

    def test_coherent_overlap_closed_form(self):
        a = coherent_state(1.0, 60)
        b = coherent_state(2.0, 60)
        assert fidelity(a, b) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_phase_and_scale_invariance(self):
        s = coherent_state(1.0, 30)
        scaled = FieldState(0.3j * s.amplitudes, normalized=False)
        assert fidelity(s, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        s = coherent_state(1.0, 30)
        z = FieldState(np.zeros(31, complex), normalized=False)
        with pytest.raises(DomainError):
            fidelity(s, z)

    def test_mixed_cutoffs_are_padded(self):
        a = coherent_state(1.0, 25)
        b = coherent_state(1.0, 45)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-9)
