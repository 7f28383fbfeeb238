"""Perturbative detuning corrections: quadratures, sector transfer, scaling."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from conftest import (
    coherent_closed,
    displacement_expm,
    second_order_kernel,
    van_loan_corrections,
)
import thermolim
from thermolim import dyson
from thermolim.dyson import (
    CorrectionRecord,
    corrections_on_grid,
    first_order_correction,
    oscillatory_integral,
    scaling_fit,
    second_order_correction,
)
from thermolim.errors import CutoffError, DomainError, QuadratureError
from thermolim.evolver import JointState, evolve_exact
from thermolim.fock import (
    FieldState,
    ModelParams,
    cat_state,
    choose_cutoff,
    coherent_state,
)
from thermolim.harness import ScenarioConfig, run_scenario
from thermolim.propagator import evolve_fock_leading
from thermolim.spins import chi_state


def params_for(n_atoms, g, delta=0.0):
    return ModelParams(delta=delta, g=g, n_atoms=n_atoms)


def vacuum(ncut):
    amps = np.zeros(ncut + 1, dtype=complex)
    amps[0] = 1.0
    return FieldState(amps)


def stationary_phase(params, tp):
    return 4.0 * (params.n_atoms - 1) * params.g ** 2 * (tp - math.sin(tp))


# ------------------------------------------------- scalar phase integral

class TestOscillatoryIntegral:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            oscillatory_integral(params_for(4, 0.3), -0.1)

    def test_zero_time_is_zero(self):
        assert oscillatory_integral(params_for(4, 0.3), 0.0) == 0.0

    def test_single_atom_is_elapsed_time(self):
        # N = 1 kills the (N-1) rate: the integrand is identically one.
        for t in [0.3, 1.0, 3 * math.pi]:
            assert oscillatory_integral(params_for(1, 0.7), t) == complex(t)

    def test_zero_coupling_is_elapsed_time(self):
        assert oscillatory_integral(params_for(8, 0.0), 2.5) == complex(2.5)

    def test_matches_dense_simpson(self):
        # the last two cases reach c = 360 over ten periods and c = 1440,
        # where the Bessel window is widest
        for n, t, points, rtol in [(2, 3 * math.pi, 200_001, 1e-8),
                                   (8, 3 * math.pi, 200_001, 1e-8),
                                   (1000, 20 * math.pi, 2_000_001, 1e-10),
                                   (4000, 2 * math.pi, 2_000_001, 1e-10)]:
            p = params_for(n, 0.3)
            ts = np.linspace(0.0, t, points)
            th = 4.0 * (n - 1) * p.g ** 2 * (ts - np.sin(ts))
            ref = simpson(np.exp(1j * th), x=ts)
            got = oscillatory_integral(p, t)
            assert abs(got - ref) <= rtol * abs(ref)

    def test_large_n_airy_asymptote(self):
        # Near each revival s_m = 2 pi m the phase is
        # 2 pi m c + a (s - s_m)^3 with a = c / 6, and
        # int e^{i a u^3} du is Gamma(1/3) e^{+-i pi/6} / (3 a^(1/3)) on each
        # half line.  Interior revivals take both halves; the two ends of
        # [0, t] take one each.
        for t in [2 * math.pi, 6 * math.pi]:
            gaps = []
            for n, rtol in [(1000, 1e-2), (10_000, 2e-3)]:
                p = params_for(n, 0.25)
                c = 4.0 * (n - 1) * p.g ** 2
                half = math.gamma(1 / 3) / (3 * (c / 6) ** (1 / 3))
                last = round(t / (2 * math.pi))
                terms = [half * (np.exp(1j * math.pi / 6) * (m < last)
                                 + np.exp(-1j * math.pi / 6) * (m > 0))
                         * np.exp(2j * math.pi * m * c) for m in range(last + 1)]
                got = oscillatory_integral(p, t)
                gaps.append(abs(got - sum(terms)) / abs(got))
                assert gaps[-1] <= rtol
            assert gaps[1] < gaps[0]

    def test_bessel_window_edge_is_checked(self, monkeypatch):
        # edge terms that have not decayed mean the window was too narrow
        monkeypatch.setattr(dyson, "_bessel_table", lambda c, last: np.full(last + 1, 1e-3))
        with pytest.raises(QuadratureError):
            oscillatory_integral(params_for(8, 0.3), 3 * math.pi)

    def test_frozen_three_period_sweep(self):
        # |integral| at t = 3 periods, g = 0.3, computed once with an
        # independent Simpson oracle and pinned here.
        expected = {2: 5.329669, 4: 4.237535, 8: 1.251360,
                    16: 1.417152, 32: 1.908867}
        for n, val in expected.items():
            got = abs(oscillatory_integral(params_for(n, 0.3), 3 * math.pi))
            assert got == pytest.approx(val, rel=1e-5)

    def test_three_period_sweep_not_monotone(self):
        # The stationary points at full periods keep the large-N decay from
        # being monotone at fixed finite t: N=16 sits above N=8.
        vals = [abs(oscillatory_integral(params_for(n, 0.3), 3 * math.pi))
                for n in [2, 4, 8, 16, 32]]
        assert vals[3] > vals[2]
        assert vals[4] > vals[3]

    def test_three_period_sweep_fit(self):
        pts = [(n, abs(oscillatory_integral(params_for(n, 0.3), 3 * math.pi)))
               for n in [2, 4, 8, 16, 32]]
        fit = scaling_fit(pts)
        assert fit["exponent"] == pytest.approx(-0.45429, abs=1e-3)
        assert fit["exponent"] <= -1.0 / 3.0


_RUNTIME_PROBE = """
import json, sys
from thermolim import harness

pools = sorted(m for m in ("concurrent.futures", "queue") if m in sys.modules)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = scipy_modules()
before = set(sys.modules)
configs = [
    {"study": "spin-classical"},
    {"study": "cat", "n_atoms": 2},
    {"study": "fock", "n_atoms": 2},
    {"study": "wigner", "n_atoms": 2, "grid_spacing": 0.2},
    {"study": "dyson-scaling", "delta": 0.02},
    {"study": "convergence", "n_atoms": 2, "delta": 0.02},
    {"study": "dyson-scaling", "delta": 0.02, "sweep_axis": "n_atoms",
     "sweep_values": [2, 4], "workers": 2},
]
for i, raw in enumerate(configs):
    config = harness.ScenarioConfig.from_mapping(raw, out_dir=f"{sys.argv[1]}/{i}")
    (harness.run_sweep if config.sweep_axis else harness.run_scenario)(config)
    seen += scipy_modules()
print(json.dumps({"scipy": seen, "pools": pools,
                  "new": sorted(set(sys.modules) - before)}))
"""


def test_runtime_loads_no_scipy_and_nothing_lazily(tmp_path):
    # the runtime is numpy-only, importing the driver loads no thread pool
    # (sweep points run in the caller's thread) but every module the
    # studies and a sweep use, so none loads inside the work (numpy loads
    # numpy.fft and numpy.random lazily)
    src = str(Path(thermolim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE, str(tmp_path)], cwd=src,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == {"scipy": [], "pools": [], "new": []}


# ------------------------------------------------- first-order transfer

class TestFirstOrderCorrection:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            first_order_correction(params_for(2, 0.3, delta=0.1), -1.0, vacuum(10))

    def test_zero_detuning_gives_zero_record(self):
        rec = first_order_correction(params_for(2, 0.3, delta=0.0), 1.0, vacuum(10))
        assert isinstance(rec, CorrectionRecord)
        assert rec.amplitude_norm == 0.0
        assert rec.converged
        assert not np.any(rec.field_correction.amplitudes)
        assert rec.field_correction.ncut == 10

    def test_zero_time_gives_zero_record(self):
        rec = first_order_correction(params_for(2, 0.3, delta=0.1), 0.0, vacuum(10))
        assert rec.amplitude_norm == 0.0
        assert rec.converged

    def test_vacuum_matches_independent_simpson(self):
        # N = 2 closes the outer sector propagator down to a bare rotation,
        # so the whole correction has a two-line independent form.
        p = params_for(2, 0.3, delta=0.02)
        ncut = choose_cutoff(p, 0.0, 0)
        t = math.pi
        ts = np.linspace(0.0, t, 4001)
        rows = np.empty((ts.size, ncut + 1), dtype=complex)
        for i, tp in enumerate(ts):
            al = (2.0 * p.g) * (1.0 - np.exp(1j * tp))
            rows[i] = np.exp(1j * stationary_phase(p, tp)) \
                * coherent_state(al, ncut).amplitudes
        inner = simpson(rows, x=ts, axis=0)
        pref = -1j * math.sqrt(2.0) * p.delta / 2.0
        direct = pref * np.exp(-1j * t * np.arange(ncut + 1)) * inner
        rec = first_order_correction(p, t, vacuum(ncut))
        assert np.max(np.abs(direct - rec.field_correction.amplitudes)) < 1e-10

    def test_general_initial_matches_expm_oracle(self):
        # Non-vacuum input exercises the dense displacement path; the oracle
        # rebuilds everything from matrix exponentials and inline formulas.
        p = params_for(3, 0.25, delta=0.04)
        ncut = 30
        t = 2.0
        amps = np.zeros(ncut + 1, dtype=complex)
        amps[0] = amps[1] = 1.0 / math.sqrt(2.0)
        initial = FieldState(amps)

        ts = np.linspace(0.0, t, 1601)
        rows = np.empty((ts.size, ncut + 1), dtype=complex)
        for i, tp in enumerate(ts):
            al = (2.0 * p.g) * (1.0 - np.exp(1j * tp))
            rows[i] = np.exp(1j * stationary_phase(p, tp)) \
                * (displacement_expm(ncut, al) @ amps)
        inner = simpson(rows, x=ts, axis=0)

        m = p.n_atoms - 2
        scale = m * p.g
        xi = scale**2 * (t - math.sin(t))
        beta = scale * (1.0 - np.exp(1j * t))
        pref = -1j * math.sqrt(p.n_atoms) * p.delta / 2.0
        staged = displacement_expm(ncut, beta) @ (pref * inner)
        direct = np.exp(1j * xi) \
            * np.exp(-1j * t * np.arange(ncut + 1)) * staged

        rec = first_order_correction(p, t, initial)
        assert np.max(np.abs(direct - rec.field_correction.amplitudes)) < 1e-8

    def test_matches_exact_sector_transfer(self):
        # Small-detuning check against the full evolver: the predicted
        # orthogonal-sector amplitude agrees to well under a percent.
        p = params_for(2, 0.3, delta=0.02)
        ncut = choose_cutoff(p, 0.0, 0)
        t = math.pi
        joint = JointState.from_product(vacuum(ncut), chi_state(2), p)
        out = evolve_exact(joint, t)
        exact_amp = float(np.linalg.norm(out.amplitudes[:, 1]))
        rec = first_order_correction(p, t, vacuum(ncut))
        assert rec.converged
        assert rec.amplitude_norm == pytest.approx(exact_amp, rel=5e-3)

    def test_diagnostics_report_convergence(self):
        p = params_for(4, 0.3, delta=0.05)
        rec = first_order_correction(p, 2.0, vacuum(40))
        assert rec.converged
        assert rec.diagnostics["nodes"] > 0
        assert rec.diagnostics["error_estimate"] <= 1e-8


# ------------------------------------------------- both orders on a grid

class TestCorrectionsOnGrid:
    @pytest.mark.parametrize("n_atoms, kind", [(2, "vacuum"), (8, "vacuum"), (4, "cat")])
    def test_matches_single_time_records(self, n_atoms, kind):
        # the first order at every grid time and the second order at t_max
        # come from one pair of passes; each must match the single-time
        # entry point at that time
        p = params_for(n_atoms, 0.3, delta=0.02)
        if kind == "cat":
            initial, _ = cat_state(1.5, 0.7, choose_cutoff(p, 1.5, 0))
        else:
            initial = vacuum(choose_cutoff(p, 0.0, 0))
        steps, t_max = 4, math.pi
        firsts, second = corrections_on_grid(p, t_max, steps, initial)
        assert len(firsts) == steps + 1
        pairs = [(rec, first_order_correction, t)
                 for rec, t in zip(firsts, np.linspace(0.0, t_max, steps + 1))]
        for grid_rec, correction, t in pairs + [(second, second_order_correction, t_max)]:
            ref = correction(p, t, initial).field_correction.amplitudes
            got = grid_rec.field_correction.amplitudes
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            assert grid_rec.amplitude_norm == pytest.approx(
                np.linalg.norm(ref), rel=1e-12, abs=0)
            assert grid_rec.converged
            assert grid_rec.diagnostics["error_estimate"] <= 1e-8

    def test_zero_splitting_and_bad_grid(self):
        p = params_for(2, 0.3)
        firsts, second = corrections_on_grid(p, 1.0, 3, vacuum(30))
        assert [r.amplitude_norm for r in firsts + [second]] == [0.0] * 5
        with pytest.raises(DomainError, match="steps"):
            corrections_on_grid(params_for(2, 0.3, delta=0.02), 1.0, 0, vacuum(30))

    def test_scaling_study_maps_only_the_fields_it_reads(self, monkeypatch, tmp_path):
        # n_steps = 16: the 17 first-order grid fields and the one
        # second-order field at t_max go back to the lab frame, no more;
        # each single-time entry maps the one field it returns
        calls = []
        real = dyson._sector_map

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(dyson, "_sector_map", counted)
        run_scenario(ScenarioConfig.from_mapping(dict(
            study="dyson-scaling", delta=0.02, g=0.3, n_atoms=4,
            t_max=math.pi, n_steps=16, out_dir=str(tmp_path))))
        assert calls == [2] * 17 + [4]
        p = params_for(8, 0.3, delta=0.02)
        initial = vacuum(choose_cutoff(p, 0.0, 0))
        for correction, sector in [(first_order_correction, 6),
                                   (second_order_correction, 8)]:
            calls.clear()
            correction(p, math.pi, initial)
            assert calls == [sector]


# ------------------------------------------------- second-order return

class TestSecondOrderCorrection:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            second_order_correction(params_for(2, 0.3, delta=0.1), -0.5, vacuum(10))

    def test_zero_cases_give_zero_record(self):
        for p, t in [(params_for(2, 0.3, delta=0.0), 1.0),
                     (params_for(2, 0.3, delta=0.1), 0.0)]:
            rec = second_order_correction(p, t, vacuum(10))
            assert rec.amplitude_norm == 0.0
            assert rec.converged

    def test_kernel_domain_additivity(self):
        # Swapping the nesting of the double integral must tile the square:
        # lower triangle + upper triangle = full product domain.
        p = params_for(3, 0.25, delta=0.05)
        ncut = 40
        v0 = vacuum(ncut)
        x, w = np.polynomial.legendre.leggauss(24)
        big_t = 1.7
        to = (big_t / 2.0) * (x + 1.0)
        wo = (big_t / 2.0) * w
        square = np.zeros(ncut + 1, dtype=complex)
        lower = np.zeros_like(square)
        upper = np.zeros_like(square)
        for a, wa in zip(to, wo):
            for b, wb in zip(to, wo):
                square += wa * wb * second_order_kernel(p, a, b, v0.amplitudes)
            ti = (a / 2.0) * (x + 1.0)
            wi = (a / 2.0) * w
            for b, wb in zip(ti, wi):
                lower += wa * wb * second_order_kernel(p, a, b, v0.amplitudes)
            ti = a + ((big_t - a) / 2.0) * (x + 1.0)
            wi = ((big_t - a) / 2.0) * w
            for b, wb in zip(ti, wi):
                upper += wa * wb * second_order_kernel(p, a, b, v0.amplitudes)
        resid = np.linalg.norm(square - lower - upper)
        assert resid <= 1e-12 * max(1.0, float(np.linalg.norm(lower)))

    def test_matches_inline_triangle_quadrature(self):
        # Same kernel, independent panelization and independent sector
        # propagator reconstruction downstream of the double integral.
        p = params_for(3, 0.25, delta=0.05)
        ncut = 40
        t = 1.7
        v0 = vacuum(ncut)
        x, w = np.polynomial.legendre.leggauss(24)
        to = (t / 2.0) * (x + 1.0)
        wo = (t / 2.0) * w
        tri = np.zeros(ncut + 1, dtype=complex)
        for a, wa in zip(to, wo):
            ti = (a / 2.0) * (x + 1.0)
            wi = (a / 2.0) * w
            for b, wb in zip(ti, wi):
                tri += wa * wb * second_order_kernel(p, a, b, v0.amplitudes)
        scale = p.n_atoms * p.g
        xi = scale**2 * (t - math.sin(t))
        beta = scale * (1.0 - np.exp(1j * t))
        pref = -p.n_atoms * p.delta**2 / 4.0
        staged = displacement_expm(ncut, beta) @ (pref * tri)
        direct = np.exp(1j * xi) \
            * np.exp(-1j * t * np.arange(ncut + 1)) * staged
        rec = second_order_correction(p, t, v0)
        dev = np.max(np.abs(direct - rec.field_correction.amplitudes))
        assert dev <= 1e-6 * max(rec.amplitude_norm, 1e-12)

    def test_frozen_amplitude_sweep(self):
        # Half-period sweep, delta = 0.02, g = 0.3, vacuum input.
        expected = {2: 8.400273e-4, 4: 1.153021e-3,
                    8: 1.116073e-3, 16: 1.357319e-3}
        for n, val in expected.items():
            p = params_for(n, 0.3, delta=0.02)
            ncut = choose_cutoff(p, 0.0, 0)
            rec = second_order_correction(p, math.pi, vacuum(ncut))
            assert rec.converged
            assert rec.amplitude_norm == pytest.approx(val, rel=1e-4)

    def test_ratio_to_first_order_stays_small_but_wobbles(self):
        # The second/first amplitude ratio stays an order of magnitude below
        # one, but it is *not* monotone in N at fixed t: the same revival
        # stationary points that break the first-order decay break it here.
        ratios = []
        for n in [2, 4, 8, 16]:
            p = params_for(n, 0.3, delta=0.02)
            ncut = choose_cutoff(p, 0.0, 0)
            r1 = first_order_correction(p, math.pi, vacuum(ncut))
            r2 = second_order_correction(p, math.pi, vacuum(ncut))
            ratios.append(r2.amplitude_norm / r1.amplitude_norm)
        assert max(ratios) < 0.05
        assert ratios[1] > ratios[0]
        assert ratios[2] < ratios[1]
        assert ratios[3] > ratios[2]


# ------------------------------------------------- engine checks

class TestCorrectionChecks:
    def test_cutoff_guard_at_sixteen_atoms(self):
        # The truncated sector Hamiltonian reflects amplitude at the top of
        # the Fock ladder: a block exponential on the bare cutoff misses a
        # cutoff-converged reference by 2e-8 (first order) and 9e-8
        # (second order).
        p = params_for(16, 0.3, delta=0.02)
        ncut = choose_cutoff(p, 0.0, 0)
        for correction in (first_order_correction, second_order_correction):
            rec = correction(p, math.pi, vacuum(ncut))
            ref = correction(p, math.pi, vacuum(ncut + 200))
            ref_amps = ref.field_correction.amplitudes[: ncut + 1]
            dev = np.linalg.norm(rec.field_correction.amplitudes - ref_amps)
            assert dev <= 1e-8 * np.linalg.norm(ref_amps)
            assert rec.converged
            assert rec.diagnostics["error_estimate"] <= 1e-8

    def test_displacement_past_cutoff_raises(self):
        # at N = 512, g = 0.3 and t = pi the lab-frame fields sit near
        # |beta| = 306, far above a 674-level cutoff (choose_cutoff asks
        # for 106 779); the map back loses all of their norm
        p = params_for(512, 0.3, delta=0.02)
        for correction in (first_order_correction, second_order_correction):
            with pytest.raises(CutoffError, match="lost"):
                correction(p, math.pi, vacuum(674))

    @staticmethod
    def faulty_pass(monkeypatch, fault):
        """Route every interaction-frame pass through ``fault(out, fine)``;
        each correction runs a coarse pass and then a fine one."""
        real = dyson._interaction_pass
        calls = []

        def wrapped(*args):
            calls.append(None)
            return fault(real(*args), len(calls) % 2 == 0)

        monkeypatch.setattr(dyson, "_interaction_pass", wrapped)

    def test_perturbed_fine_pass_is_flagged(self, monkeypatch, tmp_path):
        self.faulty_pass(monkeypatch, lambda out, fine: [
            x * (1 + 1e-6) if fine else x for x in out])
        p = params_for(2, 0.3, delta=0.02)
        for correction in (first_order_correction, second_order_correction):
            rec = correction(p, 1.0, vacuum(30))
            assert not rec.converged
            assert rec.diagnostics["error_estimate"] > 1e-8
        run = run_scenario(ScenarioConfig.from_mapping(dict(
            study="dyson-scaling", delta=0.02, g=0.3, n_atoms=2,
            t_max=1.0, n_steps=1, out_dir=str(tmp_path))))
        assert run.convergence_flags == (
            "first-order quadrature not converged at t=1",
            "second-order quadrature not converged at t=1")

    def test_non_finite_pass_raises(self, monkeypatch):
        self.faulty_pass(monkeypatch, lambda out, fine: [
            np.where(np.arange(x.shape[1]) == 3, np.nan, x) for x in out])
        p = params_for(2, 0.3, delta=0.02)
        for correction in (first_order_correction, second_order_correction):
            with pytest.raises(QuadratureError, match="non-finite"):
                correction(p, 1.0, vacuum(30))
        with pytest.raises(QuadratureError, match="non-finite"):
            corrections_on_grid(p, 1.0, 3, vacuum(30))

    def test_short_fourier_window_raises(self, monkeypatch):
        # as many nodes as ladder levels cannot hold the chirp
        # e^{-i(c + 4g^2) sin s} at c = 5.4: its Bessel band runs to |l| ~ 30
        monkeypatch.setattr(dyson, "_nodes", lambda params, support, levels: levels)
        p = params_for(16, 0.3, delta=0.02)
        for correction in (first_order_correction, second_order_correction):
            with pytest.raises(QuadratureError, match="window"):
                correction(p, math.pi, vacuum(choose_cutoff(p, 0.0, 0)))


# ------------------------------------------------- padded Van Loan oracle

def initial_for(p, kind, k=1, alpha=1.5, phi=0.7):
    if kind == "cat":
        return cat_state(alpha, phi, choose_cutoff(p, alpha, 0))[0]
    k = k if kind == "fock" else 0
    amps = np.zeros(choose_cutoff(p, 0.0, k) + 1, dtype=complex)
    amps[0] = 1.0
    if k:
        amps[0] = amps[k] = 1.0 / math.sqrt(2.0)
    return FieldState(amps)


def assert_matches_oracle(p, t, steps, initial, rtol=1e-12):
    # every first-order grid time, and the second order at t
    firsts, second = corrections_on_grid(p, t, steps, initial)
    ref_firsts, ref_seconds = van_loan_corrections(p, t, steps, initial.amplitudes)
    assert len(firsts) == len(ref_firsts) == steps + 1
    for rec, want in zip(firsts + [second], list(ref_firsts) + [ref_seconds[-1]]):
        got = rec.field_correction.amplitudes
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)
        assert rec.converged


class TestVanLoanOracle:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 16), g=st.floats(0.0, 0.5),
           t=st.floats(0.01, 2 * math.pi), steps=st.integers(1, 3),
           kind=st.sampled_from(["vacuum", "cat", "fock"]), k=st.integers(1, 3),
           alpha=st.floats(0.2, 2.0), phi=st.floats(0.0, math.pi))
    def test_both_orders_match_oracle(self, n_atoms, g, t, steps, kind, k, alpha, phi):
        p = params_for(n_atoms, g, delta=0.02)
        assert_matches_oracle(p, t, steps, initial_for(p, kind, k, alpha, phi))

    @pytest.mark.parametrize("n_atoms", [2, 4, 8, 16])
    def test_sweep_points(self, n_atoms):
        # the dyson-sweep benchmark points
        p = params_for(n_atoms, 0.3, delta=0.02)
        assert_matches_oracle(p, math.pi, 2, initial_for(p, "vacuum"))

    @pytest.mark.parametrize("n_atoms, kind", [(8, "cat"), (4, "fock"), (16, "fock")])
    def test_convergence_points(self, n_atoms, kind):
        p = params_for(n_atoms, 0.25, delta=0.02)
        initial = initial_for(p, kind, k=2, alpha=2.0, phi=1.2)
        assert_matches_oracle(p, 2 * math.pi, 2, initial)

    @pytest.mark.parametrize("n_atoms, g", [(1, 0.3), (2, 0.5), (5, 0.25),
                                            (2, 0.5 + 1e-9), (2, 0.5 - 1e-9)])
    @pytest.mark.parametrize("kind", ["vacuum", "cat"])
    def test_resonant_rates(self, n_atoms, g, kind):
        # c = 4 (N-1) g^2 is an integer (0, 1, 4) or within 4e-9 of one:
        # one Fourier term has c + l ~ 0 and is integrated in closed form
        c = 4.0 * (n_atoms - 1) * g ** 2
        assert abs(c - round(c)) < 1e-8
        p = params_for(n_atoms, g, delta=0.03)
        assert_matches_oracle(p, 2 * math.pi, 3, initial_for(p, kind, alpha=1.0, phi=0.5))

    def test_divided_difference_near_coincident_nodes(self):
        # exp[0, ix, iy] = int_0^1 e^{ixs} int_0^s e^{i(y-x)r} dr ds: the inner
        # integral in closed form, the outer by Simpson, on both sides of
        # the Taylor switch and through coincident nodes
        s = np.linspace(0.0, 1.0, 4001)
        for x, y in [(0.0, 0.0), (1e-9, -1e-9), (0.7, 0.7 + 1e-12), (0.9, -0.2),
                     (3.0, 3.0 + 1e-10), (-25.0, 1e-11), (1e-12, 30.0), (40.0, 41.5)]:
            w = y - x
            inner = s * np.exp(0.5j * w * s) * np.sinc(w * s / (2 * math.pi))
            ref = simpson(np.exp(1j * x * s) * inner, x=s)
            got = dyson._exp_divided_difference(np.array(x), np.array(y))
            assert abs(got - ref) <= 1e-11


class TestLargeN:
    P = params_for(64, 0.3, delta=0.02)

    def test_first_order_matches_interaction_integral(self):
        # |c1(pi)| = V || int_0^pi e^{i Theta(s)} |b(s)> ds ||: the lab map is
        # unitary, so a Simpson rule over the closed coherent states on 40
        # levels (20001 nodes) is the reference; ncut is 1884 in the lab frame
        p, t = self.P, math.pi
        ts = np.linspace(0.0, t, 20_001)
        rows = np.array([np.exp(1j * stationary_phase(p, s))
                         * coherent_closed(2 * p.g * (1 - np.exp(1j * s)), 40)
                         for s in ts])
        ref = p.delta / 2 * math.sqrt(p.n_atoms) * np.linalg.norm(simpson(rows, x=ts, axis=0))
        initial = vacuum(choose_cutoff(p, 0.0, 0))
        assert initial.ncut == 1884
        rec = first_order_correction(p, t, initial)
        assert rec.converged
        assert rec.amplitude_norm == pytest.approx(ref, rel=1e-10)

    def test_scaling_study_runs_unflagged(self, tmp_path):
        run = run_scenario(ScenarioConfig.from_mapping(dict(
            study="dyson-scaling", delta=0.02, g=0.3, n_atoms=64,
            t_max=math.pi, n_steps=2, out_dir=str(tmp_path))))
        assert run.convergence_flags == ()
        assert run.summary["ncut"] == 1884


# ------------------------------------------------- consistency vs exact

class TestPerturbativeConsistency:
    def test_corrections_shrink_exact_residuals(self):
        # Joint-state residual: first order cuts it by an order of magnitude;
        # the chi-sector gap then closes by >100x once second order is added,
        # and what remains scales like delta^4.
        chi_resid = {}
        for delta in [0.025, 0.05]:
            p = params_for(2, 0.3, delta=delta)
            ncut = choose_cutoff(p, 0.0, 0)
            joint = JointState.from_product(vacuum(ncut), chi_state(2), p)
            out = evolve_exact(joint, math.pi)
            lead = evolve_fock_leading(p, 0, math.pi, ncut)
            r1 = first_order_correction(p, math.pi, vacuum(ncut))
            r2 = second_order_correction(p, math.pi, vacuum(ncut))

            pred = np.zeros_like(out.amplitudes)
            pred[:, 0] = lead.amplitudes
            r_lead = np.linalg.norm(out.amplitudes - pred)
            pred[:, 1] = r1.field_correction.amplitudes
            r_first = np.linalg.norm(out.amplitudes - pred)
            assert r_lead / r_first >= 8.0

            chi_lead = np.linalg.norm(out.amplitudes[:, 0] - lead.amplitudes)
            chi_both = np.linalg.norm(out.amplitudes[:, 0] - lead.amplitudes
                                      - r2.field_correction.amplitudes)
            assert chi_lead / chi_both >= 100.0
            chi_resid[delta] = chi_both
        quartic = chi_resid[0.05] / chi_resid[0.025]
        assert quartic == pytest.approx(16.0, rel=0.1)


# ------------------------------------------------- fits and reporting

class TestScalingFit:
    def test_recovers_pure_power_law(self):
        pts = [(n, 3.7 * n**-0.5) for n in [2, 4, 8, 16, 32]]
        fit = scaling_fit(pts)
        assert fit["exponent"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_has_zero_exponent(self):
        fit = scaling_fit([(n, 2.0) for n in [2, 4, 8, 16]])
        assert fit["exponent"] == pytest.approx(0.0, abs=1e-12)

    def test_accepts_any_iterable(self):
        fit = scaling_fit((n, float(n)) for n in [1, 2, 3, 4])
        assert fit["exponent"] == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            scaling_fit([(2, 1.0), (4, 0.7), (8, 0.5)])

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(DomainError):
            scaling_fit([(2, 1.0), (4, 0.7), (8, 0.0), (16, 0.2)])


class TestWriteCorrectionsCsv:
    # the harness's dyson-scaling.csv is the corrections' CSV writer
    P = params_for(2, 0.3, delta=0.05)

    def check_csv(self, tmp_path, initial, **inputs):
        run_scenario(ScenarioConfig.from_mapping(dict(
            study="dyson-scaling", n_atoms=2, g=0.3, delta=0.05, t_max=1.0,
            n_steps=1, out_dir=str(tmp_path), **inputs)))
        recs = [first_order_correction(self.P, 1.0, initial),
                second_order_correction(self.P, 1.0, initial)]
        raw = (tmp_path / "dyson-scaling.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "order,N,t,amplitude_norm,quadrature_error"
        # first-order rows at t = 0 and t = 1, then the second-order row
        assert len(lines) == 4
        for line, order, rec in zip(lines[2:], ["1", "2"], recs):
            cells = line.split(",")
            assert cells[0] == order
            assert cells[1] == "2"
            assert float(cells[2]) == 1.0
            assert float(cells[3]) == pytest.approx(rec.amplitude_norm, rel=0, abs=0)
            assert float(cells[4]) == pytest.approx(
                rec.diagnostics["error_estimate"], rel=0, abs=0)
            assert rec.amplitude_norm > 0
        zero = lines[1].split(",")
        assert zero[:2] == ["1", "2"]
        assert float(zero[2]) == 0.0
        assert float(zero[3]) == 0.0

    def test_layout_and_round_trip(self, tmp_path):
        self.check_csv(tmp_path, vacuum(choose_cutoff(self.P, 0.0, 0)))

    def test_cat_input(self, tmp_path):
        ncut = choose_cutoff(self.P, 1.0, 0)
        cat, _ = cat_state(1.0, math.pi / 2, ncut)
        self.check_csv(tmp_path, cat, initial_state="cat", alpha=1.0)

    def test_fock_input(self, tmp_path):
        amps = np.zeros(choose_cutoff(self.P, 0.0, 2) + 1, dtype=complex)
        amps[0] = amps[2] = 1.0 / math.sqrt(2.0)
        self.check_csv(tmp_path, FieldState(amps), initial_state="fock", fock_k=2)
