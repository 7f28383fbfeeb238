"""Perturbative detuning corrections: quadratures, sector transfer, scaling."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import displacement_expm, phase_kicked_expm_multiply, second_order_kernel
from thermolim import evolver
from thermolim.dyson import (
    CorrectionRecord,
    first_order_correction,
    oscillatory_integral,
    scaling_fit,
    second_order_correction,
)
from thermolim.errors import DomainError
from thermolim.evolver import JointState, build_hamiltonian, evolve_exact
from thermolim.fock import FieldState, ModelParams, choose_cutoff, coherent_state
from thermolim.harness import ScenarioConfig, run_scenario
from thermolim.propagator import evolve_fock_leading
from thermolim.spins import chi_state


def params_for(n_atoms, g, delta=0.0, omega=1.0):
    return ModelParams(omega=omega, delta=delta, g=g, n_atoms=n_atoms)


def vacuum(ncut):
    amps = np.zeros(ncut + 1, dtype=complex)
    amps[0] = 1.0
    return FieldState(amps)


def stationary_phase(params, tp):
    wt = params.omega * tp
    return 4.0 * (params.n_atoms - 1) * (params.g / params.omega) ** 2 \
        * (wt - math.sin(wt))


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
        for n in [2, 8]:
            p = params_for(n, 0.3)
            t = 3 * math.pi
            ts = np.linspace(0.0, t, 200_001)
            wt = p.omega * ts
            th = 4.0 * (n - 1) * (p.g / p.omega) ** 2 * (wt - np.sin(wt))
            ref = simpson(np.exp(1j * th), x=ts)
            got = oscillatory_integral(p, t)
            assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_frozen_three_period_sweep(self):
        # |integral| at t = 3 periods, g/omega = 0.3, computed once with an
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


# ------------------------------------------------- first-order transfer

class TestFirstOrderCorrection:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            first_order_correction(params_for(2, 0.3, delta=0.1), -1.0, vacuum(10))

    def test_zero_detuning_gives_zero_record(self):
        rec = first_order_correction(params_for(2, 0.3, delta=0.0), 1.0, vacuum(10))
        assert isinstance(rec, CorrectionRecord)
        assert rec.order == 1
        assert rec.target == "chi_prime"
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
        ncut = choose_cutoff(p, 10.0, 0.0, 0)
        t = math.pi
        ts = np.linspace(0.0, t, 4001)
        rows = np.empty((ts.size, ncut + 1), dtype=complex)
        for i, tp in enumerate(ts):
            al = (2.0 * p.g / p.omega) * (1.0 - np.exp(1j * p.omega * tp))
            rows[i] = np.exp(1j * stationary_phase(p, tp)) \
                * coherent_state(al, ncut).amplitudes
        inner = simpson(rows, x=ts, axis=0)
        pref = -1j * math.sqrt(2.0) * p.delta / 2.0
        direct = pref * np.exp(-1j * p.omega * t * np.arange(ncut + 1)) * inner
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
            al = (2.0 * p.g / p.omega) * (1.0 - np.exp(1j * p.omega * tp))
            rows[i] = np.exp(1j * stationary_phase(p, tp)) \
                * (displacement_expm(ncut, al) @ amps)
        inner = simpson(rows, x=ts, axis=0)

        m = p.n_atoms - 2
        scale = m * p.g / p.omega
        xi = scale**2 * (p.omega * t - math.sin(p.omega * t))
        beta = scale * (1.0 - np.exp(1j * p.omega * t))
        pref = -1j * math.sqrt(p.n_atoms) * p.delta / 2.0
        staged = displacement_expm(ncut, beta) @ (pref * inner)
        direct = np.exp(1j * xi) \
            * np.exp(-1j * p.omega * t * np.arange(ncut + 1)) * staged

        rec = first_order_correction(p, t, initial)
        assert np.max(np.abs(direct - rec.field_correction.amplitudes)) < 1e-8

    def test_matches_exact_sector_transfer(self):
        # Small-detuning check against the full evolver: the predicted
        # orthogonal-sector amplitude agrees to well under a percent.
        p = params_for(2, 0.3, delta=0.02)
        ncut = choose_cutoff(p, 10.0, 0.0, 0)
        t = math.pi
        spec = build_hamiltonian(p, ncut)
        joint = JointState.from_product(vacuum(ncut), chi_state(2), p)
        out = evolve_exact(joint, t, spec)
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
        assert rec.params is p
        assert rec.t == 2.0


# ------------------------------------------------- second-order return

class TestSecondOrderCorrection:
    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            second_order_correction(params_for(2, 0.3, delta=0.1), -0.5, vacuum(10))

    def test_zero_cases_give_zero_record(self):
        for p, t in [(params_for(2, 0.3, delta=0.0), 1.0),
                     (params_for(2, 0.3, delta=0.1), 0.0)]:
            rec = second_order_correction(p, t, vacuum(10))
            assert rec.order == 2
            assert rec.target == "chi"
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
        scale = p.n_atoms * p.g / p.omega
        xi = scale**2 * (p.omega * t - math.sin(p.omega * t))
        beta = scale * (1.0 - np.exp(1j * p.omega * t))
        pref = -p.n_atoms * p.delta**2 / 4.0
        staged = displacement_expm(ncut, beta) @ (pref * tri)
        direct = np.exp(1j * xi) \
            * np.exp(-1j * p.omega * t * np.arange(ncut + 1)) * staged
        rec = second_order_correction(p, t, v0)
        dev = np.max(np.abs(direct - rec.field_correction.amplitudes))
        assert dev <= 1e-6 * max(rec.amplitude_norm, 1e-12)

    def test_frozen_amplitude_sweep(self):
        # Half-period sweep, delta/omega = 0.02, g/omega = 0.3, vacuum input.
        expected = {2: 8.400273e-4, 4: 1.153021e-3,
                    8: 1.116073e-3, 16: 1.357319e-3}
        for n, val in expected.items():
            p = params_for(n, 0.3, delta=0.02)
            ncut = choose_cutoff(p, 10.0, 0.0, 0)
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
            ncut = choose_cutoff(p, 10.0, 0.0, 0)
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
        ncut = choose_cutoff(p, 10.0, 0.0, 0)
        for correction in (first_order_correction, second_order_correction):
            rec = correction(p, math.pi, vacuum(ncut))
            ref = correction(p, math.pi, vacuum(ncut + 200))
            ref_amps = ref.field_correction.amplitudes[: ncut + 1]
            dev = np.linalg.norm(rec.field_correction.amplitudes - ref_amps)
            assert dev <= 1e-8 * np.linalg.norm(ref_amps)
            assert rec.converged
            assert rec.diagnostics["error_estimate"] <= 1e-8

    def test_engine_disagreement_is_flagged(self, monkeypatch, tmp_path):
        monkeypatch.setattr(evolver, "expm_multiply", phase_kicked_expm_multiply)
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


# ------------------------------------------------- consistency vs exact

class TestPerturbativeConsistency:
    def test_corrections_shrink_exact_residuals(self):
        # Joint-state residual: first order cuts it by an order of magnitude;
        # the chi-sector gap then closes by >100x once second order is added,
        # and what remains scales like delta^4.
        chi_resid = {}
        for delta in [0.025, 0.05]:
            p = params_for(2, 0.3, delta=delta)
            ncut = choose_cutoff(p, 10.0, 0.0, 0)
            spec = build_hamiltonian(p, ncut)
            joint = JointState.from_product(vacuum(ncut), chi_state(2), p)
            out = evolve_exact(joint, math.pi, spec)
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
    def test_layout_and_round_trip(self, tmp_path):
        # the harness's dyson-scaling.csv is the corrections' CSV writer
        p = params_for(2, 0.3, delta=0.05)
        run_scenario(ScenarioConfig.from_mapping(dict(
            study="dyson-scaling", n_atoms=2, g=0.3, delta=0.05, t_max=1.0,
            n_steps=1, out_dir=str(tmp_path))))
        ncut = choose_cutoff(p, 1.0, 0.0, 0)
        recs = [first_order_correction(p, 1.0, vacuum(ncut)),
                second_order_correction(p, 1.0, vacuum(ncut))]
        raw = (tmp_path / "dyson-scaling.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "order,N,t,amplitude_norm,quadrature_error"
        # first-order rows at t = 0 and t = 1, then the second-order row
        assert len(lines) == 4
        for line, rec in zip(lines[2:], recs):
            cells = line.split(",")
            assert cells[0] == str(rec.order)
            assert cells[1] == "2"
            assert float(cells[2]) == 1.0
            assert float(cells[3]) == pytest.approx(rec.amplitude_norm, rel=0, abs=0)
            assert float(cells[4]) == pytest.approx(
                rec.diagnostics["error_estimate"], rel=0, abs=0)
        zero = lines[1].split(",")
        assert zero[:2] == ["1", "2"]
        assert float(zero[2]) == 0.0
        assert float(zero[3]) == 0.0
