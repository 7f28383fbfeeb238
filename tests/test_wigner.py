"""Phase-space module: Wigner numerics, interference closed form,
time averaging, visibility, serialization."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import displacement_expm, w_int_meshgrid
from thermolim.errors import CutoffError, DomainError, ValidationError
from thermolim.fock import (
    FieldState,
    ModelParams,
    cat_norm_closed,
    cat_state,
    choose_cutoff,
    coherent_state,
)
from thermolim.propagator import frame
from thermolim.wigner import (
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
    wigner_numeric,
)


def params_for(n_atoms, g, omega=1.0, delta=0.0):
    return ModelParams(omega=omega, delta=delta, g=g, n_atoms=n_atoms)


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
        fr = frame(p, 2.0, 0.0, 0.7)
        mid = fr.beta_prime + 2.0 * np.exp(-1j * 0.7)
        np.testing.assert_allclose(w.values, 2 * gaussian_on(grid, mid), atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n_atoms=st.integers(1, 16), g=st.floats(0.1, 0.5), alpha=st.floats(0.5, 3.0),
           phi=st.floats(0.0, math.pi), t=st.floats(0.0, 2 * math.pi))
    def test_separable_form_matches_meshgrid(self, n_atoms, g, alpha, phi, t):
        # nx != np, so a transposed factor product cannot pass
        p = params_for(n_atoms, g)
        fr = frame(p, alpha, phi, t)
        mid = fr.beta_prime + alpha * math.cos(phi) * complex(math.cos(t), -math.sin(t))
        xb, pb = math.sqrt(2) * mid.real, math.sqrt(2) * mid.imag
        grid = WignerGrid.empty(xb - 5.0, xb + 5.0, pb - 3.5, pb + 4.0, 0.1)
        assert grid.nx != grid.np
        want = w_int_meshgrid(grid, fr.beta_prime, alpha, phi, t,
                              interference_phase_offset(p, alpha, phi, t))
        got = w_int_closed(p, alpha, phi, t, grid).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

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
        fr = frame(p, alpha, phi, t)
        c1 = fr.beta_prime + alpha * np.exp(1j * (phi - t))
        c2 = fr.beta_prime + alpha * np.exp(1j * (-phi - t))
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

    def test_fitted_offset_recovers_analytic_value(self):
        p = params_for(4, 0.25)
        alpha, phi = 2.0, math.pi / 2
        for t in [0.6, math.pi / 2, 2.8]:
            fr = frame(p, alpha, phi, t)
            c1 = fr.beta_prime + alpha * np.exp(1j * (phi - t))
            c2 = fr.beta_prime + alpha * np.exp(1j * (-phi - t))
            grid = default_grid([c1, c2, (c1 + c2) / 2], spacing=0.15)
            w = w_int_closed(p, alpha, phi, t, grid)
            fitted = fit_interference_offset(w, p, alpha, phi, t)
            want = interference_phase_offset(p, alpha, phi, t)
            diff = math.atan2(math.sin(fitted - want), math.cos(fitted - want))
            assert abs(diff) < 1e-8

    def test_fringe_speed_linear_in_n(self):
        # d(offset)/dt at omega t = pi/2 equals 4 a (N g / w) w sin(phi);
        # recover it from fitted phases of rendered grids
        alpha, phi, h = 2.0, math.pi / 2, 1e-3
        t = math.pi / 2
        rates = []
        for n in [2, 4, 8]:
            p = params_for(n, 0.25)
            vals = []
            for tt in (t - h, t + h):
                fr = frame(p, alpha, phi, tt)
                c1 = fr.beta_prime + alpha * np.exp(1j * (phi - tt))
                c2 = fr.beta_prime + alpha * np.exp(1j * (-phi - tt))
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
        avg, report = time_average(lambda t: target, (0.0, 1.0))
        np.testing.assert_array_equal(avg.values, target.values)
        assert report.converged

    def test_full_period_cosine_averages_to_zero(self):
        k = 3.0
        avg, report = time_average(lambda t: math.cos(k * t), (0.0, 2 * math.pi / k))
        assert report.converged
        assert abs(float(avg)) < 1e-12

    def test_nonconvergent_signal_is_flagged(self):
        # sample count enters the mean directly, so no doubling settles
        calls = [0]

        def restless(t):
            calls[0] += 1
            return float(calls[0])

        avg, report = time_average(restless, (0.0, 1.0))
        assert not report.converged
        assert report.doublings == 4
        assert report.max_change >= 1e-4

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
                lambda t: w_int_closed(p, alpha, phi, t, grid),
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
                fr = frame(p, alpha, phi, t)
                c1 = fr.beta_prime + alpha * np.exp(1j * (phi - t))
                c2 = fr.beta_prime + alpha * np.exp(1j * (-phi - t))
                return n2 * (gaussian_on(grid, c1) + gaussian_on(grid, c2))

            def full_values(t, p=p, grid=grid):
                cross = w_int_closed(p, alpha, phi, t, grid).values
                return branch_values(t) + n2 * cross

            avg_full, _ = time_average(lambda t: full_values(t), (0.0, 2 * math.pi))
            avg_br, _ = time_average(lambda t: branch_values(t), (0.0, 2 * math.pi))
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
def _grids(draw):
    nx, npts = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    x_min, p_min = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
    x_max = x_min + (nx - 1) * draw(st.floats(1e-3, 0.25))
    p_max = p_min + (npts - 1) * draw(st.floats(1e-3, 0.25))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=nx * npts, max_size=nx * npts))
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
