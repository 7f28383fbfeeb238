"""End-to-end gates: every headline property of the package, one test
per claim, each printing a single PASS/FAIL line with the measured
numbers.

One test is expected to fail: the exact chi'-sector transfer amplitude
does *not* decay monotonically with the atom number at the stated
parameters (the explicit sqrt-N prefactor cancels the stationary-phase
decay of the underlying integral), so the scaling clauses of
``test_detuning_transfer_scaling_with_atom_number`` are left red rather
than weakened.  See notes in the repository root for the analysis.
"""

import math

import numpy as np
import pytest

from conftest import displacement_expm, displacement_series_mp
from thermolim.dyson import first_order_correction
from thermolim.evolver import JointState, build_hamiltonian, evolve_exact, \
    fidelity, project_chi
from thermolim.fock import (
    FieldState,
    ModelParams,
    cat_norm_closed,
    cat_state,
    choose_cutoff,
    coherent_state,
    displaced_number_state,
    displacement_matrix,
    overlap,
)
from thermolim.harness import ScenarioConfig, run_sweep
from thermolim.propagator import asymptotic_branch_ratio, evolve_cat_leading, frame
from thermolim.spins import chi_prime_state, chi_state, random_spec, \
    sigma_moments_bruteforce, sigma_moments_closed, ProductSpinSpec
from thermolim.wigner import default_grid, fit_interference_offset, time_average, \
    w_int_closed, wigner_numeric


def report(passed: bool, label: str, detail: str) -> str:
    line = f"{'PASS' if passed else 'FAIL'}: {label} — {detail}"
    print(line)
    return line


def vacuum(ncut: int) -> FieldState:
    amps = np.zeros(ncut + 1, dtype=complex)
    amps[0] = 1.0
    return FieldState(amps)


def test_zero_detuning_closed_form_is_exact():
    # With the atomic splitting off, the closed cat evolution must agree
    # with the exact joint evolver to working precision everywhere.
    times = [0.5, 1.0, math.pi, 2 * math.pi]
    worst = 1.0
    for n in [2, 4, 8]:
        for g in [0.1, 0.25]:
            p = ModelParams(delta=0.0, g=g, n_atoms=n)
            ncut = choose_cutoff(p, 2.0, 0)
            spec = build_hamiltonian(p, ncut)
            chi = chi_state(n)
            for alpha in [1.0, 2.0]:
                for phi in [math.pi / 4, math.pi / 2]:
                    state = JointState.from_product(
                        cat_state(alpha, phi, ncut)[0], chi, p)
                    prev = 0.0
                    for t in times:
                        state = evolve_exact(state, t - prev, spec)
                        prev = t
                        lead = evolve_cat_leading(p, alpha, phi, t, ncut)
                        worst = min(worst, fidelity(lead, project_chi(state, chi)))
    ok = worst >= 1.0 - 1e-8
    line = report(ok, "zero-detuning exactness",
                  f"worst fidelity {worst:.16f} over 96 parameter points")
    assert ok, line


def test_displacement_elements_match_independent_oracles():
    alphas = [0.3, 1.0, 2.0 + 1.0j, 3.0]
    worst_expm = 0.0
    worst_series = 0.0
    for alpha in alphas:
        got = displacement_matrix(20, alpha)
        oracle = displacement_expm(80, alpha)[:21, :21]
        # the float64 expm oracle carries ~1e-15 absolute noise, so tiny
        # elements get an absolute floor; the exact 50-digit series
        # below covers them at full relative precision
        dev = np.abs(got - oracle) / np.maximum(np.abs(oracle), 5e-14 / 1e-8)
        worst_expm = max(worst_expm, float(dev.max()))
        for n in range(21):
            for k in range(21):
                exact = displacement_series_mp(n, k, alpha)
                if abs(exact) < 1e-30:
                    # structural zero (the generalized Laguerre factor
                    # 1+m-x vanishes, e.g. <1|D(1)|1> or <1|D(3)|9>);
                    # both sides sit at their roundoff floors, so gate
                    # absolutely
                    assert abs(got[n, k]) <= 5e-14
                    continue
                rel = abs(got[n, k] - exact) / abs(exact)
                worst_series = max(worst_series, float(rel))
    ok = worst_expm <= 1e-8 and worst_series <= 1e-8
    line = report(ok, "displacement-element oracle",
                  f"worst rel dev: expm {worst_expm:.3e}, "
                  f"exact series {worst_series:.3e} (n,k <= 20)")
    assert ok, line


def test_spin_moments_and_fluctuation_scaling():
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        spec = random_spec(n, rng)
        delta = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.0, 2 * math.pi))
        closed = sigma_moments_closed(spec, delta, t)
        brute = sigma_moments_bruteforce(spec, delta, t)
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, brute)))

    site = random_spec(1, np.random.default_rng(7))
    sizes = [4, 8, 16, 32, 64]
    ratios = []
    for n in sizes:
        spec = ProductSpinSpec(np.repeat(site.a, n), np.repeat(site.b, n))
        m = sigma_moments_closed(spec, 1.3, 0.9)
        ratios.append(math.sqrt(m.var_x) / abs(m.mean_x))
    slope = float(np.polyfit(np.log(sizes), np.log(ratios), 1)[0])

    ok = worst <= 1e-10 and abs(slope + 0.5) <= 0.02
    line = report(ok, "spin-moment oracle",
                  f"closed-vs-brute max dev {worst:.3e} (100 seeded specs), "
                  f"fluctuation slope {slope:.4f}")
    assert ok, line


def test_cat_wigner_decomposition_matches_closed_fringe():
    p = ModelParams(delta=0.0, g=0.25, n_atoms=4)
    alpha, phi = 2.0, math.pi / 2
    ncut = choose_cutoff(p, alpha, 0)
    norm2 = cat_norm_closed(alpha, phi) ** 2
    worst = 0.0
    for t in [0.0, math.pi / 2]:
        fr = frame(p, alpha, phi, t)
        rot = complex(math.cos(t), -math.sin(t))
        g1 = fr.beta_prime + alpha * np.exp(1j * phi) * rot
        g2 = fr.beta_prime + alpha * np.exp(-1j * phi) * rot
        grid = default_grid([g1, g2], spacing=0.1)
        full = wigner_numeric(evolve_cat_leading(p, alpha, phi, t, ncut), grid)
        b1 = wigner_numeric(coherent_state(g1, ncut), grid)
        b2 = wigner_numeric(coherent_state(g2, ncut), grid)
        cross = full.values - norm2 * (b1.values + b2.values)
        closed = norm2 * w_int_closed(p, alpha, phi, t, grid).values
        worst = max(worst, float(np.max(np.abs(cross - closed))))
    ok = worst <= 1e-6
    line = report(ok, "Wigner fringe decomposition",
                  f"worst pointwise deviation {worst:.3e} at t=0 and quarter period")
    assert ok, line


def test_fringe_washout_and_phase_linearity():
    alpha, phi, g = 2.0, math.pi / 2, 0.25
    sizes = [2, 4, 8, 16]
    sups = []
    speeds = []
    for n in sizes:
        p = ModelParams(delta=0.0, g=g, n_atoms=n)
        centers = []
        for t in np.linspace(0.0, 2 * math.pi, 65):
            fr = frame(p, alpha, phi, t)
            rot = complex(math.cos(t), -math.sin(t))
            centers.append(fr.beta_prime + alpha * np.exp(1j * phi) * rot)
            centers.append(fr.beta_prime + alpha * np.exp(-1j * phi) * rot)
        grid = default_grid(centers, spacing=0.15)
        averaged, _ = time_average(
            lambda t: w_int_closed(p, alpha, phi, t, grid),
            (0.0, 2 * math.pi))
        sups.append(averaged.sup_norm())

        # fringe speed at the quarter period, recovered from fitted
        # offsets on either side; the law is linear in N
        tq, h = math.pi / 2, 1e-4
        fits = [fit_interference_offset(w_int_closed(p, alpha, phi, t, grid),
                                        p, alpha, phi, t)
                for t in (tq - h, tq + h)]
        dphase = math.remainder(fits[1] - fits[0], 2 * math.pi)
        speeds.append(dphase / (2 * h))

    monotone = all(b <= a for a, b in zip(sups, sups[1:]))
    exponent = float(np.polyfit(np.log(sizes), np.log(sups), 1)[0])
    laws = [4.0 * alpha * n * g * math.sin(phi) for n in sizes]
    lin_dev = max(abs(s / l - 1.0) for s, l in zip(speeds, laws))

    ok = monotone and exponent <= -0.4 and lin_dev <= 0.02
    line = report(ok, "fringe washout",
                  f"averaged sups {[f'{s:.4f}' for s in sups]}, "
                  f"exponent {exponent:.3f}, phase-speed linearity dev "
                  f"{lin_dev:.2e}")
    assert ok, line


def test_detuning_transfer_scaling_with_atom_number():
    # Expected red: the transfer amplitude should (by the claimed
    # 1/sqrt-N law) decrease with N, but the measured sequence wobbles
    # upward because the sqrt-N prefactor eats the integral's decay.
    # The clauses are asserted as stated and left to fail.
    sizes = [2, 4, 8, 16]
    amps = []
    first_n2 = None
    for n in sizes:
        p = ModelParams(delta=0.02, g=0.3, n_atoms=n)
        ncut = choose_cutoff(p, 0.0, 0)
        spec = build_hamiltonian(p, ncut)
        state = JointState.from_product(vacuum(ncut), chi_state(n), p)
        out = evolve_exact(state, math.pi, spec)
        amps.append(float(np.linalg.norm(
            project_chi(out, chi_prime_state(n)).amplitudes)))
        if n == 2:
            first_n2 = first_order_correction(p, math.pi, vacuum(ncut)).amplitude_norm

    monotone = all(b < a for a, b in zip(amps, amps[1:]))
    exponent = float(np.polyfit(np.log(sizes), np.log(amps), 1)[0])
    first_dev = abs(first_n2 / amps[0] - 1.0)

    ok = monotone and exponent <= -1.0 / 3.0 and first_dev <= 0.05
    line = report(ok, "detuning-transfer N-scaling",
                  f"amplitudes {[f'{a:.6f}' for a in amps]}, fitted exponent "
                  f"{exponent:+.4f} (reported against the -0.5 expectation, "
                  f"not gated on it), first-order match at N=2 "
                  f"{100 * first_dev:.3f}%")
    assert ok, line


def test_leading_order_error_scales_quadratically():
    alpha, phi = 2.0, math.pi / 2
    deltas = [0.0125, 0.025, 0.05]
    deficits = []
    gains = []
    for delta in deltas:
        p = ModelParams(delta=delta, g=0.25, n_atoms=4)
        ncut = choose_cutoff(p, alpha, 0)
        spec = build_hamiltonian(p, ncut)
        field0, _ = cat_state(alpha, phi, ncut)
        chi = chi_state(4)
        out = evolve_exact(JointState.from_product(field0, chi, p), math.pi, spec)
        proj = project_chi(out, chi)
        deficits.append(1.0 - float(np.linalg.norm(proj.amplitudes) ** 2))

        lead = evolve_cat_leading(p, alpha, phi, math.pi, ncut)
        corr = first_order_correction(p, math.pi, field0)
        pred = np.outer(lead.amplitudes, chi.amplitudes)
        r_lead = np.linalg.norm(out.amplitudes - pred)
        pred = pred + np.outer(corr.field_correction.amplitudes,
                               chi_prime_state(4).amplitudes)
        r_corr = np.linalg.norm(out.amplitudes - pred)
        gains.append(float(r_lead / r_corr))

    exponent = float(np.polyfit(np.log(deltas), np.log(deficits), 1)[0])
    ok = abs(exponent - 2.0) <= 0.1 and gains[0] >= 4.0
    line = report(ok, "perturbative order consistency",
                  f"deficit exponent {exponent:.4f}, first-order residual "
                  f"gain {gains[0]:.1f}x at smallest detuning")
    assert ok, line


def test_displaced_branch_asymptotics():
    k = 2
    radii = [5.0, 10.0, 20.0, 40.0]
    worst_at_20 = 0.0
    improving = True
    for n in range(6):
        devs = [abs(asymptotic_branch_ratio(k, n, r) - 1.0) for r in radii]
        worst_at_20 = max(worst_at_20, devs[2])
        # non-strict: n=0 is exact (deviation identically zero)
        improving = improving and all(b <= a + 1e-15
                                      for a, b in zip(devs, devs[1:]))

    worst_orth = 0.0
    for bp in [5.0, 10.0, 20.0, 20.0 * np.exp(1j * math.pi / 3), 40.0]:
        # photon-number spread of |k, beta> is ~ sqrt(2k+1)|beta|, wider
        # than the coherent branch
        x = abs(bp) ** 2
        ncut = int(x + 10 * math.sqrt((2 * k + 1) * x) + 50)
        ov = overlap(coherent_state(bp, ncut), displaced_number_state(k, bp, ncut))
        worst_orth = max(worst_orth, abs(ov))

    ok = worst_at_20 <= 0.05 and improving and worst_orth <= 1e-10
    line = report(ok, "displaced-branch asymptotics",
                  f"worst |ratio-1| at radius 20: {worst_at_20:.4f}, "
                  f"monotone improvement {improving}, orthogonality "
                  f"{worst_orth:.2e}")
    assert ok, line


def test_sweep_outputs_are_byte_identical(tmp_path):
    base = dict(study="dyson-scaling", delta=0.02, g=0.3, t_max=math.pi,
                n_steps=2, sweep_axis="n_atoms", sweep_values=[2, 4, 8, 16])
    for workers, name in [(1, "serial"), (3, "threaded")]:
        _, aggregate = run_sweep(ScenarioConfig.from_mapping(
            dict(base), workers=workers, out_dir=str(tmp_path / name)))
        assert "exponent_first_order" in aggregate["aggregates"]
    identical = True
    for n in base["sweep_values"]:
        a = (tmp_path / "serial" / f"n_atoms_{n}" / "dyson-scaling.csv").read_bytes()
        b = (tmp_path / "threaded" / f"n_atoms_{n}" / "dyson-scaling.csv").read_bytes()
        identical = identical and a == b
    ok = identical
    line = report(ok, "sweep determinism",
                  "CSV bodies byte-identical for 1 vs 3 workers over 4 points")
    assert ok, line
