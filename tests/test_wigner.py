"""Phase-space module: Wigner numerics, interference closed form,
time averaging, visibility, serialization."""

import cmath
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import displacement_expm, save_csv_cellwise, w_int_meshgrid
from thermolim import wigner
from thermolim.errors import CutoffError, DomainError, QuadratureError, ValidationError
from thermolim.fock import (
    FieldState,
    ModelParams,
    cat_norm_closed,
    cat_state,
    choose_cutoff,
    coherent_state,
)
from thermolim.propagator import sector_frame
from thermolim.wigner import (
    MAX_SPACING,
    WignerGrid,
    count_time_zero_crossings,
    default_grid,
    fit_interference_offset,
    fringe_visibility,
    interference_phase_offset,
    load_csv,
    load_wgrd,
    save_csv,
    save_wgrd,
    time_average,
    w_int_closed,
    w_int_mean,
    wigner_numeric,
)


def params_for(n_atoms, g, delta=0.0):
    return ModelParams(delta=delta, g=g, n_atoms=n_atoms)


def beta_prime(p, t):
    """beta' = beta_N(t) e^{-it}, the extremal sector's displacement in
    the frame that rotates with the mode, from :func:`sector_frame`."""
    return sector_frame(p.n_atoms, p, t)[1] * cmath.exp(-1j * t)


def bruteforce_wigner(amps, x, p, pad):
    """(1/pi) sum_n (-1)^n |<n|D(-lam)|psi>|^2 with the state zero-padded
    to a ``pad`` ladder, so the truncated-generator expm is converged;
    padding does not change the state, so W must agree."""
    padded = np.zeros(pad + 1, complex)
    padded[: amps.size] = amps
    lam = (x + 1j * p) / math.sqrt(2)
    rotated = displacement_expm(pad, -lam) @ padded
    return np.sum((-1.0) ** np.arange(pad + 1) * np.abs(rotated) ** 2) / math.pi


def gaussian_on(grid, center):
    """Ideal coherent-state Wigner for branch center in amplitude units."""
    X, P = grid.meshgrid()
    xb, pb = math.sqrt(2) * center.real, math.sqrt(2) * center.imag
    return (1 / math.pi) * np.exp(-((X - xb) ** 2) - (P - pb) ** 2)


# ------------------------------------------------------------------- grids

class TestWignerGrid:
    def test_spacing_cap_enforced(self):
        with pytest.raises(ValidationError):
            WignerGrid(-2, 2, -2, 2, 5, 41, np.zeros((5, 41)))

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            WignerGrid(-1, 1, -1, 1, 21, 21, np.zeros((21, 20)))

    def test_bounds_checked(self):
        with pytest.raises(ValidationError):
            WignerGrid(1, -1, -1, 1, 21, 21, np.zeros((21, 21)))

    def test_values_read_only(self):
        g = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    def test_empty_respects_requested_spacing(self):
        g = WignerGrid.empty(-1.0, 1.05, -1.0, 1.0, 0.1)
        assert g.dx <= 0.1 + 1e-15 and g.dp <= 0.1 + 1e-15

    def test_default_grid_covers_centers(self):
        g = default_grid([2j, -2j, 0.5])
        assert g.x_min <= math.sqrt(2) * 0.5 - 4 and g.x_max >= math.sqrt(2) * 0.5 + 4
        assert g.p_min <= -math.sqrt(2) * 2 - 4 and g.p_max >= math.sqrt(2) * 2 + 4

    def test_default_grid_needs_centers(self):
        with pytest.raises(DomainError):
            default_grid([])


# ----------------------------------------------------------- wigner_numeric

class TestWignerNumeric:
    def test_vacuum_gaussian(self):
        grid = default_grid([0])
        w = wigner_numeric(FieldState(np.eye(30, 1, dtype=complex).ravel()), grid)
        np.testing.assert_allclose(w.values, gaussian_on(grid, 0j), atol=1e-8)

    def test_coherent_gaussian_displaced(self):
        grid = default_grid([1.0])
        w = wigner_numeric(coherent_state(1.0, 30), grid)
        np.testing.assert_allclose(w.values, gaussian_on(grid, 1.0 + 0j), atol=1e-8)

    def test_cat_integrates_to_one(self):
        psi, _ = cat_state(2.0, math.pi / 2, 40)
        grid = default_grid([2j, -2j])
        w = wigner_numeric(psi, grid)
        assert w.integral() == pytest.approx(1.0, abs=1e-3)
        assert 0.98 <= w.integral() <= 1.02

    def test_matches_bruteforce_parity_sum(self):
        rng = np.random.default_rng(7)
        ncut = 22
        amps = rng.normal(size=ncut + 1) + 1j * rng.normal(size=ncut + 1)
        amps[-8:] *= 1e-6  # keep the tail certified
        amps /= np.linalg.norm(amps)
        psi = FieldState(amps)
        for ox, op in [(0.3, -0.4), (1.1, 0.9), (-0.7, 0.2)]:
            grid = WignerGrid.empty(ox, ox + 0.2, op, op + 0.2, 0.2)
            w = wigner_numeric(psi, grid)
            for i, x in enumerate(grid.x_axis):
                for j, p in enumerate(grid.p_axis):
                    brute = bruteforce_wigner(amps, x, p, pad=60)
                    assert w.values[i, j] == pytest.approx(brute, abs=1e-10)

    @pytest.mark.parametrize("case", ["coherent", "gapped"])
    def test_support_truncation_matches_bruteforce(self, case):
        # the sum stops at the state's support, far below the cutoff; a
        # gap in the support must not hide the component above it
        if case == "coherent":
            amps, pad = coherent_state(1.0, 120).amplitudes, 200
        else:
            amps = np.zeros(81, complex)
            amps[0], amps[35] = 0.6, 0.8j
            pad = 260
        psi = FieldState(amps)
        # the last corner has |lambda|^2 = (x^2 + p^2) / 2 > 30
        for ox, op in [(0.3, -0.4), (-2.5, 1.5), (5.9, 5.3)]:
            grid = WignerGrid.empty(ox, ox + 0.2, op, op + 0.2, 0.2)
            w = wigner_numeric(psi, grid)
            for i, x in enumerate(grid.x_axis):
                for j, p in enumerate(grid.p_axis):
                    brute = bruteforce_wigner(amps, x, p, pad)
                    assert w.values[i, j] == pytest.approx(brute, abs=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_bruteforce_on_random_states_and_grids(self, data):
        # spacings near MAX_SPACING refine the integration lattice below
        # the grid step; grids off the origin need a lattice over both the
        # grid's reach and the state's support
        top = data.draw(st.integers(0, 32), label="top")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        amps = np.zeros(top + 11, complex)  # zero band above the support
        amps[: top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
        if top >= 2 and data.draw(st.booleans(), label="gapped"):
            lo = data.draw(st.integers(1, top - 1), label="gap_lo")
            amps[lo:data.draw(st.integers(lo + 1, top), label="gap_hi")] = 0
        amps /= np.linalg.norm(amps)
        spacing = data.draw(st.floats(0.05, MAX_SPACING), label="spacing")
        nx, npts = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
        x0, p0 = data.draw(st.floats(-4, 4)), data.draw(st.floats(-4, 4))
        grid = WignerGrid(x0, x0 + (nx - 1) * spacing, p0, p0 + (npts - 1) * spacing,
                          nx, npts, np.zeros((nx, npts)))
        w = wigner_numeric(FieldState(amps), grid)
        for i, x in enumerate(grid.x_axis):
            for j, p in enumerate(grid.p_axis):
                assert w.values[i, j] == pytest.approx(
                    bruteforce_wigner(amps, x, p, pad=240), abs=1e-10)

    def test_washout_grid_matches_bruteforce(self):
        # the wigner study's t = 0 grid at N = 12, alpha = 2, phi = pi/2,
        # spacing 0.05: 375 x 375 points, support dmax = 38 of ncut = 132
        p, alpha, phi = params_for(12, 0.25), 2.0, math.pi / 2
        centers = [beta_prime(p, t) + alpha * np.exp(1j * (s * phi - t))
                   for t in np.linspace(0.0, 2 * math.pi, 65) for s in (1, -1)]
        grid = default_grid(centers, spacing=0.05)
        assert (grid.nx, grid.np) == (375, 375)
        psi, _ = cat_state(alpha, phi, choose_cutoff(p, alpha, 0))
        w = wigner_numeric(psi, grid)
        xs, ps = range(0, grid.nx, 68), range(17, grid.np, 68)
        for i in xs:
            for j in ps:
                brute = bruteforce_wigner(psi.amplitudes, grid.x_axis[i],
                                          grid.p_axis[j], pad=450)
                assert w.values[i, j] == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("n, x0", [(0, -0.25), (3, 0.5), (100, 0.0), (700, 36.5)])
    def test_number_state_matches_laguerre_closed_form(self, n, x0):
        # W = (-1)^n e^(-r^2) L_n(2 r^2) / pi.  The vacuum pins the reach of
        # the y-sum.  At spacing 0.25 an unrefined lattice would alias
        # W(x, p -+ 4 pi), inside the support of |100>.  |700> reaches
        # x ~ 37, where e^(-u^2/2) alone is subnormal, so the Hermite
        # recurrence must carry its scale apart
        import mpmath as mp

        amps = np.zeros(n + 100, complex)
        amps[n] = 1.0
        grid = WignerGrid(x0, x0 + 0.5, -0.5, 0.0, 3, 3, np.zeros((3, 3)))
        w = wigner_numeric(FieldState(amps), grid)
        with mp.workdps(60):
            for i, x in enumerate(grid.x_axis):
                for j, p in enumerate(grid.p_axis):
                    r2 = mp.mpf(x) ** 2 + mp.mpf(p) ** 2
                    closed = (-1) ** n / mp.pi * mp.exp(-r2) * mp.laguerre(n, 0, 2 * r2)
                    assert w.values[i, j] == pytest.approx(float(closed), abs=1e-12)

    @pytest.mark.parametrize("fault", ["clipped", "scaled"])
    def test_lattice_norm_drift_raises(self, monkeypatch, fault):
        # a lattice that misses part of psi's support, and a wavefunction
        # off by 1e-9 in norm, both fail the 1e-12 position-space norm check
        real = wigner._hermite_series

        def faulty(coeffs, u):
            psi = real(coeffs, u)
            if fault == "clipped":
                return np.where(np.abs(u) < 4.0, psi, 0.0)
            return psi * math.sqrt(1.0 + 1e-9)

        monkeypatch.setattr(wigner, "_hermite_series", faulty)
        with pytest.raises(QuadratureError, match=r"drift .* h = .*, R = "):
            wigner_numeric(coherent_state(2.0, 40), default_grid([2.0]))

    def test_parity_bound_everywhere(self):
        rng = np.random.default_rng(11)
        grid = WignerGrid.empty(-3, 3, -3, 3, 0.25)
        for _ in range(4):
            amps = rng.normal(size=25) + 1j * rng.normal(size=25)
            amps[-8:] *= 1e-7
            amps /= np.linalg.norm(amps)
            w = wigner_numeric(FieldState(amps), grid)
            assert w.sup_norm() <= 2 / math.pi + 1e-6
            assert w.sup_norm() <= 1 / math.pi + 1e-6

    def test_leaky_tail_rejected(self):
        amps = coherent_state(4.0, 60).amplitudes[:19]
        psi = FieldState(amps / np.linalg.norm(amps))
        with pytest.raises(CutoffError):
            wigner_numeric(psi, default_grid([0]))


# ------------------------------------------------------------ interference

class TestWIntClosed:
    def test_aligned_branches_do_not_oscillate(self):
        p = params_for(4, 0.25)
        grid = default_grid([2.0])
        w = w_int_closed(p, 2.0, 0.0, 0.7, grid)
        assert np.all(w.values >= -1e-15)
        bp = beta_prime(p, 0.7)
        mid = bp + 2.0 * np.exp(-1j * 0.7)
        np.testing.assert_allclose(w.values, 2 * gaussian_on(grid, mid), atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 16), g=st.floats(0.1, 0.5), alpha=st.floats(0.5, 3.0),
           phi=st.floats(0.0, math.pi), t=st.floats(0.0, 2 * math.pi))
    def test_separable_form_matches_meshgrid(self, n_atoms, g, alpha, phi, t):
        # nx != np, so a transposed factor product cannot pass
        p = params_for(n_atoms, g)
        bp = beta_prime(p, t)
        mid = bp + alpha * math.cos(phi) * complex(math.cos(t), -math.sin(t))
        xb, pb = math.sqrt(2) * mid.real, math.sqrt(2) * mid.imag
        grid = WignerGrid.empty(xb - 5.0, xb + 5.0, pb - 3.5, pb + 4.0, 0.1)
        assert grid.nx != grid.np
        want = w_int_meshgrid(grid, bp, alpha, phi, t,
                              interference_phase_offset(p, alpha, phi, t))
        got = w_int_closed(p, alpha, phi, t, grid).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 100])  # either side of each block edge
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 16), g=st.floats(0.1, 0.5), alpha=st.floats(0.5, 3.0),
           phi=st.floats(0.0, math.pi), t0=st.floats(0.0, 2 * math.pi),
           span=st.floats(0.01, 4 * math.pi))
    def test_block_mean_matches_per_sample_mean(self, n, n_atoms, g, alpha, phi, t0, span):
        p = params_for(n_atoms, g)
        ts = t0 + (np.arange(n) + 0.5) * (span / n)
        # the grid holds every midpoint visited, so each sample is O(1) on it
        grid = default_grid([beta_prime(p, t)
                             + alpha * math.cos(phi) * complex(math.cos(t), -math.sin(t))
                             for t in ts], spacing=0.25)
        want = np.mean([w_int_closed(p, alpha, phi, t, grid).values for t in ts], axis=0)
        got = w_int_mean(p, alpha, phi, ts, grid)
        assert got.same_geometry(grid)
        np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-14)

    def test_mean_over_no_times_rejected(self):
        with pytest.raises(DomainError):
            w_int_mean(params_for(4, 0.25), 2.0, 1.0, [], default_grid([2.0]))

    @pytest.mark.parametrize("t", [0.0, 0.7, math.pi])
    def test_fit_rejects_aligned_branches(self, t):
        # at phi = 0 there are no fringes, so no phase can be fitted
        p = params_for(4, 0.25)
        grid = default_grid([2.0])
        w = w_int_closed(p, 2.0, 0.0, t, grid)
        with pytest.raises(DomainError, match="degenerate"):
            fit_interference_offset(w, p, 2.0, 0.0, t)

    def test_static_cat_cross_term(self):
        # subtracting the branch Gaussians from the full cat Wigner
        # leaves exactly N^2 times the closed form
        alpha, phi, ncut = 2.0, math.pi / 2, 45
        p = params_for(4, 0.25)
        psi, _ = cat_state(alpha, phi, ncut)
        n2 = cat_norm_closed(alpha, phi) ** 2
        grid = default_grid([alpha * np.exp(1j * phi), alpha * np.exp(-1j * phi)])
        full = wigner_numeric(psi, grid)
        b1 = wigner_numeric(coherent_state(alpha * np.exp(1j * phi), ncut), grid)
        b2 = wigner_numeric(coherent_state(alpha * np.exp(-1j * phi), ncut), grid)
        cross_measured = full.values - n2 * (b1.values + b2.values)
        closed = w_int_closed(p, alpha, phi, 0.0, grid)
        np.testing.assert_allclose(cross_measured, n2 * closed.values, atol=1e-6)

    def test_decomposition_holds_under_evolution(self):
        from thermolim.propagator import evolve_cat_leading

        p = params_for(4, 0.25)
        alpha, phi, t = 2.0, math.pi / 2, 1.3
        ncut = choose_cutoff(p, alpha, 0)
        bp = beta_prime(p, t)
        c1 = bp + alpha * np.exp(1j * (phi - t))
        c2 = bp + alpha * np.exp(1j * (-phi - t))
        grid = default_grid([c1, c2, (c1 + c2) / 2])
        full = wigner_numeric(evolve_cat_leading(p, alpha, phi, t, ncut), grid)
        b1 = wigner_numeric(coherent_state(c1, ncut), grid)
        b2 = wigner_numeric(coherent_state(c2, ncut), grid)
        n2 = cat_norm_closed(alpha, phi) ** 2
        cross = w_int_closed(p, alpha, phi, t, grid)
        resid = full.values - n2 * (b1.values + b2.values) - n2 * cross.values
        assert np.max(np.abs(resid)) < 1e-6

    def test_fringe_phase_doubles_with_n(self):
        t = math.pi / 2
        off4 = interference_phase_offset(params_for(4, 0.25), 2.0, math.pi / 2, t)
        off8 = interference_phase_offset(params_for(8, 0.25), 2.0, math.pi / 2, t)
        assert off8 == pytest.approx(2 * off4, rel=1e-12)
        # alpha^2 sin(2 phi) vanishes at phi = pi/2, so the offset is the
        # collective term alone: 4*2*(N/4)*1*(1-0) = 2N
        assert off4 == pytest.approx(8.0, rel=1e-12)

    def test_zero_crossing_count_scales_with_n(self):
        c4 = count_time_zero_crossings(params_for(4, 0.25), 2.0, math.pi / 2)
        c8 = count_time_zero_crossings(params_for(8, 0.25), 2.0, math.pi / 2)
        assert (c4, c8) == (10, 20)

    def test_zero_crossing_count_at_fast_fringes(self):
        # N g = 192, alpha = 3: the offset moves by up to 2304 / 4096 * 2 pi > pi
        # between two of 4096 samples; a sampled count over 2^22 midpoints,
        # in chunks carrying the last sign across, resolves every crossing
        n_atoms, g, alpha, phi = 192, 1.0, 3.0, math.pi / 2
        a, b = alpha**2 * math.sin(2 * phi), 4 * alpha * n_atoms * g * math.sin(phi)
        total, chunk = 1 << 22, 1 << 20
        crossings, last = 0, None
        for i0 in range(0, total, chunk):
            ts = (np.arange(i0, i0 + chunk) + 0.5) * (2 * math.pi / total)
            signs = np.sign(np.cos(a + b * (1 - np.cos(ts))))
            if last is not None:
                signs = np.concatenate(([last], signs))
            crossings += int(np.count_nonzero(np.diff(signs)))
            last = signs[-1]
        assert crossings == 2934
        assert count_time_zero_crossings(params_for(n_atoms, g), alpha, phi) == crossings

    def test_fitted_offset_recovers_analytic_value(self):
        p = params_for(4, 0.25)
        alpha, phi = 2.0, math.pi / 2
        for t in [0.6, math.pi / 2, 2.8]:
            bp = beta_prime(p, t)
            c1 = bp + alpha * np.exp(1j * (phi - t))
            c2 = bp + alpha * np.exp(1j * (-phi - t))
            grid = default_grid([c1, c2, (c1 + c2) / 2], spacing=0.15)
            w = w_int_closed(p, alpha, phi, t, grid)
            fitted = fit_interference_offset(w, p, alpha, phi, t)
            want = interference_phase_offset(p, alpha, phi, t)
            diff = math.atan2(math.sin(fitted - want), math.cos(fitted - want))
            assert abs(diff) < 1e-8

    def test_fringe_speed_linear_in_n(self):
        # d(offset)/dt at t = pi/2 equals 4 a N g sin(phi);
        # recover it from fitted phases of rendered grids
        alpha, phi, h = 2.0, math.pi / 2, 1e-3
        t = math.pi / 2
        rates = []
        for n in [2, 4, 8]:
            p = params_for(n, 0.25)
            vals = []
            for tt in (t - h, t + h):
                bp = beta_prime(p, tt)
                c1 = bp + alpha * np.exp(1j * (phi - tt))
                c2 = bp + alpha * np.exp(1j * (-phi - tt))
                grid = default_grid([c1, c2, (c1 + c2) / 2], spacing=0.15)
                w = w_int_closed(p, alpha, phi, tt, grid)
                vals.append(fit_interference_offset(w, p, alpha, phi, tt))
            step = math.atan2(math.sin(vals[1] - vals[0]),
                              math.cos(vals[1] - vals[0]))
            rate = step / (2 * h)
            want = 4 * alpha * (n * 0.25) * 1.0 * math.sin(phi)
            assert rate == pytest.approx(want, rel=0.02)
            rates.append(rate)
        slope = np.polyfit([2, 4, 8], rates, 1)[0]
        assert slope == pytest.approx(rates[1] / 4, rel=0.02)


# ------------------------------------------------------------ time average

class TestTimeAverage:
    def test_constant_grid_is_fixed_point(self):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        target = grid.with_values(np.full((grid.nx, grid.np), 0.3))
        avg, report = time_average(lambda ts: target, (0.0, 1.0))
        np.testing.assert_array_equal(avg.values, target.values)
        assert report.converged

    def test_full_period_cosine_averages_to_zero(self):
        k = 3.0
        avg, report = time_average(lambda ts: float(np.mean(np.cos(k * ts))),
                                   (0.0, 2 * math.pi / k))
        assert report.converged
        assert isinstance(avg, float)  # a scalar signal averages to a scalar
        assert abs(float(avg)) < 1e-12

    def test_nonconvergent_signal_is_flagged(self):
        # the sample count is the signal, so no doubling settles
        avg, report = time_average(lambda ts: float(ts.size), (0.0, 1.0))
        assert not report.converged
        assert report.doublings == 4
        assert report.max_change >= 1e-4

    def test_refilled_buffer_averages_like_fresh_arrays(self):
        # each mean is copied before the next call, so an evaluator may
        # hand back one buffer filled anew each time; without the copy the
        # two means alias and max_change reads 0
        buffer = np.empty(2)

        def refilled(ts):
            buffer[:] = (ts.mean(), (ts * ts).mean())
            return buffer

        fresh, fresh_report = time_average(
            lambda ts: np.array([ts.mean(), (ts * ts).mean()]), (0.0, 1.0))
        avg, report = time_average(refilled, (0.0, 1.0))
        np.testing.assert_array_equal(avg, fresh)
        assert report == fresh_report
        assert report.converged
        assert avg[0] == pytest.approx(0.5, abs=1e-15)
        assert avg[1] == pytest.approx(1 / 3, abs=1e-4)

    def test_sample_count_on_a_window_that_converges_at_once(self):
        # 64 midpoints, then 128; the first doubling settles a line
        times = []

        def line(ts):
            times.append(ts.copy())
            return np.mean([ts, 2.0 - ts], axis=1)

        avg, report = time_average(line, (0.0, 2.0))
        assert [ts.size for ts in times] == [64, 128]
        assert (report.n_samples, report.doublings, report.converged) == (128, 1, True)
        np.testing.assert_array_equal(times[0], (np.arange(64) + 0.5) * (2.0 / 64))
        np.testing.assert_array_equal(times[1], (np.arange(128) + 0.5) * (2.0 / 128))
        np.testing.assert_allclose(avg, [1.0, 1.0], rtol=0, atol=1e-15)

    def test_window_and_sample_validation(self):
        with pytest.raises(DomainError):
            time_average(lambda t: 0.0, (1.0, 1.0))

    def test_averaged_interference_decays_with_n(self):
        alpha, phi = 2.0, math.pi / 2
        sups = []
        for n in [2, 4, 8, 16]:
            p = params_for(n, 0.25)
            reach = 2 * n * 0.25 + alpha
            grid = WignerGrid.empty(-math.sqrt(2) * reach - 4.3,
                                    math.sqrt(2) * reach + 4.3,
                                    -math.sqrt(2) * reach - 4.3,
                                    math.sqrt(2) * reach + 4.3, 0.15)
            avg, report = time_average(
                lambda ts: w_int_mean(p, alpha, phi, ts, grid),
                (0.0, 2 * math.pi))
            assert report.converged
            sups.append(avg.sup_norm())
        assert all(a >= b for a, b in zip(sups, sups[1:]))
        expo = np.polyfit(np.log([2, 4, 8, 16]), np.log(sups), 1)[0]
        assert expo <= -0.4


# -------------------------------------------------------------- visibility

class TestFringeVisibility:
    def test_identical_grids_give_zero(self):
        g = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        g = g.with_values(np.random.default_rng(0).normal(size=(g.nx, g.np)))
        assert fringe_visibility(g, g) == 0.0

    def test_static_cat_saturates_clip(self):
        # central fringe peaks at (2/pi) against branch peaks of (1/pi):
        # the ratio sits at 2 up to exponentially small branch overlap
        alpha, phi, ncut = 2.0, math.pi / 2, 45
        psi, _ = cat_state(alpha, phi, ncut)
        n2 = cat_norm_closed(alpha, phi) ** 2
        grid = default_grid([alpha * np.exp(1j * phi), alpha * np.exp(-1j * phi)])
        full = wigner_numeric(psi, grid)
        b1 = wigner_numeric(coherent_state(alpha * np.exp(1j * phi), ncut), grid)
        b2 = wigner_numeric(coherent_state(alpha * np.exp(-1j * phi), ncut), grid)
        branches = grid.with_values(n2 * (b1.values + b2.values))
        vis = fringe_visibility(full, branches)
        assert 1.9 <= vis <= 2.0

    def test_time_averaged_visibility_decreases_with_n(self):
        alpha, phi = 2.0, math.pi / 2
        n2 = cat_norm_closed(alpha, phi) ** 2
        out = {}
        for n in [2, 16]:
            p = params_for(n, 0.25)
            reach = 2 * n * 0.25 + alpha
            grid = WignerGrid.empty(-math.sqrt(2) * reach - 4.3,
                                    math.sqrt(2) * reach + 4.3,
                                    -math.sqrt(2) * reach - 4.3,
                                    math.sqrt(2) * reach + 4.3, 0.15)

            def branch_values(t, p=p, grid=grid):
                bp = beta_prime(p, t)
                c1 = bp + alpha * np.exp(1j * (phi - t))
                c2 = bp + alpha * np.exp(1j * (-phi - t))
                return n2 * (gaussian_on(grid, c1) + gaussian_on(grid, c2))

            def branch_mean(ts):
                return np.mean([branch_values(t) for t in ts], axis=0)

            def full_mean(ts, p=p, grid=grid):
                return branch_mean(ts) + n2 * w_int_mean(p, alpha, phi, ts, grid).values

            avg_full, _ = time_average(full_mean, (0.0, 2 * math.pi))
            avg_br, _ = time_average(branch_mean, (0.0, 2 * math.pi))
            out[n] = fringe_visibility(grid.with_values(avg_full),
                                       grid.with_values(avg_br))
        assert out[16] < out[2]

    def test_zero_branch_norm_rejected(self):
        g = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        with pytest.raises(DomainError):
            fringe_visibility(g.with_values(np.ones((g.nx, g.np))), g)

    def test_mismatched_grids_rejected(self):
        a = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        b = WignerGrid.empty(-1, 1.5, -1, 1, 0.25)
        with pytest.raises(ValidationError):
            fringe_visibility(a, b)


# ------------------------------------------------------------ serialization

class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        grid = default_grid([1.0 + 0.5j], spacing=0.2)
        w = wigner_numeric(coherent_state(1.0 + 0.5j, 30), grid)
        path = tmp_path / "w.wgrd"
        save_wgrd(w, path)
        back = load_wgrd(path)
        np.testing.assert_array_equal(back.values, w.values)
        # bounds travel as float64
        assert back.same_geometry(w)

    def test_binary_roundtrip_keeps_spacing_cap(self, tmp_path):
        # float32 bounds widened this span past the 0.25 spacing cap
        grid = WignerGrid.empty(-3.3, 5.7, -1.1, 2.9, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        assert load_wgrd(path).same_geometry(grid)

    def test_binary_header_layout(self, tmp_path):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        raw = path.read_bytes()
        assert raw[:4] == b"WGRD"
        assert struct.unpack("<II", raw[4:12]) == (grid.nx, grid.np)
        assert struct.unpack("<I", raw[28:32]) == (2,)
        assert struct.unpack("<4d", raw[32:64]) == (-1.0, 1.0, -1.0, 1.0)
        assert len(raw) == 64 + grid.nx * grid.np * 8

    def test_binary_version1_still_loads(self, tmp_path):
        grid = WignerGrid.empty(-3.3, 5.7, -1.1, 2.9, 0.25)
        vals = np.arange(grid.nx * grid.np, dtype=float).reshape(grid.nx, grid.np)
        path = tmp_path / "v1.wgrd"
        path.write_bytes(b"WGRD" + struct.pack("<II", grid.nx, grid.np)
                         + struct.pack("<4f", -3.0, 5.5, -1.0, 2.75)
                         + b"\x00" * 4 + vals.astype("<f8").tobytes())
        back = load_wgrd(path)
        assert (back.x_min, back.x_max, back.p_min, back.p_max) == (-3.0, 5.5, -1.0, 2.75)
        np.testing.assert_array_equal(back.values, vals)

    def test_binary_unknown_version_rejected(self, tmp_path):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        raw = bytearray(path.read_bytes())
        raw[28:32] = struct.pack("<I", 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="version"):
            load_wgrd(path)

    def test_binary_magic_checked(self, tmp_path):
        path = tmp_path / "bad.wgrd"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValidationError):
            load_wgrd(path)

    def test_binary_truncation_detected(self, tmp_path):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValidationError):
            load_wgrd(path)

    def test_binary_oversized_header_rejected(self, tmp_path):
        # a version-1 header alone that claims (2^32 - 1)^2 points, ~1.5e20
        # payload bytes: the size is checked against the file, never read
        path = tmp_path / "w.wgrd"
        path.write_bytes(b"WGRD" + struct.pack("<II", 2**32 - 1, 2**32 - 1)
                         + struct.pack("<4f", -1, 1, -1, 1) + b"\x00" * 4)
        with pytest.raises(ValidationError, match="w.wgrd: truncated WGRD payload"):
            load_wgrd(path)

    def test_binary_trailing_bytes_rejected(self, tmp_path):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValidationError, match="w.wgrd: bytes after"):
            load_wgrd(path)

    def test_binary_non_finite_value_names_path(self, tmp_path):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", math.nan))
        with pytest.raises(ValidationError) as info:
            load_wgrd(path)
        assert str(path) in str(info.value)
        assert "grid values must be finite" in str(info.value)

    def test_binary_coarse_grid_names_path(self, tmp_path):
        # the header rewritten to a 2 x 2 grid on the same bounds: spacing 2
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        path = tmp_path / "w.wgrd"
        save_wgrd(grid, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<II", 2, 2) + raw[12:64] + b"\x00" * 32)
        with pytest.raises(ValidationError) as info:
            load_wgrd(path)
        assert str(path) in str(info.value)
        assert "exceeds 0.25" in str(info.value)

    def _csv_lines(self, tmp_path):
        grid = WignerGrid.empty(-1, 1, -1, 1, 0.25)
        w = grid.with_values(np.arange(grid.nx * grid.np, dtype=float)
                             .reshape(grid.nx, grid.np))
        path = tmp_path / "w.csv"
        save_csv(w, path)
        load_csv(path)  # the unedited file loads
        return path, path.read_text(encoding="utf-8").splitlines(keepends=True)

    def test_csv_swapped_rows_rejected(self, tmp_path):
        path, lines = self._csv_lines(tmp_path)
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="w.csv: x,p columns"):
            load_csv(path)

    def test_csv_off_grid_row_rejected(self, tmp_path):
        # every row at x = -0.25 moved to x = -0.4: still rectangular, but
        # off the uniform axis it would be relabelled onto
        path, lines = self._csv_lines(tmp_path)
        lines = [line.replace("-0.25,", "-0.40000000000000002,", 1)
                 if line.startswith("-0.25,") else line for line in lines]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="w.csv: x,p columns"):
            load_csv(path)

    @pytest.mark.parametrize("edit", ["cell", "ragged"])
    def test_csv_unreadable_row_rejected(self, tmp_path, edit):
        path, lines = self._csv_lines(tmp_path)
        lines[3] = "abc,0,0\n" if edit == "cell" else "0,0\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="w.csv: unreadable"):
            load_csv(path)

    @staticmethod
    def _csv_rejection(path):
        """The message of ``load_csv(path)``'s ValidationError, which must
        name the path and come without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                load_csv(path)
        assert str(path) in str(info.value)
        return str(info.value)

    def test_csv_non_finite_cell_names_path(self, tmp_path):
        path, lines = self._csv_lines(tmp_path)
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert "grid values must be finite" in self._csv_rejection(path)

    def test_csv_coarse_grid_names_path(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x,p,W\n0,0,0\n0,1,0\n1,0,0\n1,1,0\n", encoding="utf-8")
        assert "exceeds 0.25" in self._csv_rejection(path)

    def test_csv_header_only_names_path(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x,p,W\n", encoding="utf-8")
        assert "no x,p,W rows" in self._csv_rejection(path)

    def test_csv_roundtrip_and_format(self, tmp_path):
        grid = default_grid([0.5j], spacing=0.25)
        w = wigner_numeric(coherent_state(0.5j, 25), grid)
        path = tmp_path / "w.csv"
        save_csv(w, path)
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "x,p,W"
        assert "\r" not in text
        assert len(lines) == 1 + grid.nx * grid.np + 1  # header + rows + trailing LF
        back = load_csv(path)
        np.testing.assert_allclose(back.values, w.values, rtol=0, atol=0)
        assert back.nx == w.nx and back.np == w.np

    def test_csv_bytes_match_line_by_line_format(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = WignerGrid.empty(-1.3, 0.9, -0.7, 1.1, 0.25)
        vals = rng.normal(size=(grid.nx, grid.np)) * 10.0 ** rng.integers(-20, 3, (grid.nx, grid.np))
        vals[0, 0], vals[1, 1] = 0.0, -0.0
        w = grid.with_values(vals)
        path = tmp_path / "w.csv"
        save_csv(w, path)
        expected = ["x,p,W\n"]
        for i, x in enumerate(w.x_axis):
            for j, p in enumerate(w.p_axis):
                expected.append(f"{x:.17g},{p:.17g},{w.values[i, j]:.17g}\n")
        assert path.read_bytes() == "".join(expected).encode("utf-8")


@st.composite
def _grids(draw, elements=st.floats(allow_nan=False, allow_infinity=False)):
    nx, npts = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    x_min, p_min = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
    x_max = x_min + (nx - 1) * draw(st.floats(1e-3, 0.25))
    p_max = p_min + (npts - 1) * draw(st.floats(1e-3, 0.25))
    values = draw(st.lists(elements, min_size=nx * npts, max_size=nx * npts))
    return WignerGrid(x_min, x_max, p_min, p_max, nx, npts,
                      np.reshape(values, (nx, npts)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_grids())
def test_artifacts_round_trip_random_grids_exactly(grid):
    with tempfile.TemporaryDirectory() as tmp:
        for save, load, name in [(save_wgrd, load_wgrd, "w.wgrd"),
                                 (save_csv, load_csv, "w.csv")]:
            path = Path(tmp) / name
            save(grid, path)
            back = load(path)
            assert back.same_geometry(grid)
            assert back.values.tobytes() == grid.values.tobytes()


# signed zeros, subnormals down to the smallest, 1.0 and the largest finite
_CSV_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
              1e-300, 1.0, -1.0, 1e300, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_grids(st.one_of(st.sampled_from(_CSV_EDGES),
                        st.floats(allow_nan=False, allow_infinity=False))))
@example(WignerGrid(0.0, 0.5, -0.25, 0.5, 3, 4, np.reshape(_CSV_EDGES, (3, 4))))
def test_csv_bytes_match_per_cell_writer(grid):
    with tempfile.TemporaryDirectory() as tmp:
        rows, cells = Path(tmp) / "rows.csv", Path(tmp) / "cells.csv"
        save_csv(grid, rows)
        save_csv_cellwise(grid, cells)
        assert rows.read_bytes() == cells.read_bytes()
