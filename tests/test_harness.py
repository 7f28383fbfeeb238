"""Study driver: config parsing, validation, pipelines, sweeps, CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolim.cli import main as cli_main
from thermolim.errors import ValidationError
from thermolim.harness import (
    STUDY_NAMES,
    SWEEP_AXES,
    ScenarioConfig,
    load_config,
    parse_config,
    run_scenario,
    run_sweep,
)
from thermolim.wigner import load_csv, load_wgrd


def make_config(**kw):
    return ScenarioConfig.from_mapping(dict(kw))


# ---------------------------------------------------------------- config

class TestParseConfig:
    def test_typed_values(self):
        text = """
        # comment
        study = "cat"
        n_atoms = 4
        g = 0.25

        emit_wigner_bin = false
        sweep_values = [2, 4.5, 8]
        out_dir = null
        """
        raw = parse_config(text)
        assert raw["study"] == "cat"
        assert raw["n_atoms"] == 4
        assert raw["g"] == 0.25
        assert raw["emit_wigner_bin"] is False
        assert raw["sweep_values"] == [2, 4.5, 8]
        assert raw["out_dir"] is None

    def test_bad_key_named(self):
        with pytest.raises(ValidationError, match="Bad-Key"):
            parse_config("Bad-Key = 1")

    def test_duplicate_key_named(self):
        with pytest.raises(ValidationError, match="duplicate key 'g'"):
            parse_config("g = 1\ng = 2")

    def test_non_json_value_named(self):
        with pytest.raises(ValidationError, match="'phi'"):
            parse_config("phi = pi/2")

    def test_missing_equals(self):
        with pytest.raises(ValidationError, match="key = value"):
            parse_config("just words")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999",
                                       "[1.0, Infinity]"])
    def test_non_finite_value_named(self, token):
        with pytest.raises(ValidationError, match="'alpha'"):
            parse_config(f"alpha = {token}")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text('study = "fock"\nfock_k = 3\n', encoding="utf-8")
        assert load_config(path) == {"study": "fock", "fock_k": 3}


class TestValidation:
    def test_negative_omega_names_field(self):
        with pytest.raises(ValidationError, match="omega"):
            make_config(study="cat", omega=-1.0)

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="granularity"):
            make_config(study="cat", granularity=3)

    def test_unknown_study_named(self):
        with pytest.raises(ValidationError, match="study"):
            make_config(study="frobnicate")

    def test_detuning_studies_need_delta(self):
        for study in ["dyson-scaling", "convergence"]:
            with pytest.raises(ValidationError, match="delta"):
                make_config(study=study, delta=0.0)

    def test_explicit_spin_needs_matching_arrays(self):
        with pytest.raises(ValidationError, match="spin_a"):
            make_config(study="spin-classical", spin_source="explicit",
                        n_atoms=2, spin_a=[[1.0, 0.0]], spin_b=[[0, 0], [0, 0]])

    def test_explicit_spin_norm_checked(self):
        with pytest.raises(ValidationError, match="spin_b"):
            make_config(study="spin-classical", spin_source="explicit",
                        n_atoms=1, spin_a=[[1.0, 0.0]], spin_b=[[0.5, 0.0]])

    def test_spin_arrays_require_explicit_source(self):
        with pytest.raises(ValidationError, match="spin_a"):
            make_config(study="spin-classical", spin_a=[[1.0, 0.0]])

    def test_sweep_values_need_axis(self):
        with pytest.raises(ValidationError, match="sweep_values"):
            make_config(study="cat", sweep_values=[2, 4])

    def test_sweep_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            make_config(study="cat", sweep_axis="n_atoms", sweep_values=[2, 2])

    @pytest.mark.parametrize("axis, values", [("alpha", [1.0, "x"]),
                                              ("n_atoms", [2, [3]]),
                                              ("delta", [0.1, True])])
    def test_non_numeric_sweep_values_rejected(self, axis, values):
        with pytest.raises(ValidationError, match="^sweep_values: must be numbers"):
            make_config(study="spin-classical", sweep_axis=axis, sweep_values=values)

    def test_sweep_limit_enforced(self):
        with pytest.raises(ValidationError, match="sweep_limit"):
            make_config(study="cat", sweep_axis="n_atoms",
                        sweep_values=[2, 4, 8], sweep_limit=2)

    def test_bad_axis_named(self):
        with pytest.raises(ValidationError, match="sweep_axis"):
            make_config(study="cat", sweep_axis="ncut", sweep_values=[1])

    def test_resolved_echoes_defaults(self):
        cfg = make_config(study="cat")
        res = cfg.resolved()
        assert res["out_dir"] == "runs/cat"
        assert res["tol_tail"] == 1e-8
        assert res["omega"] == 1.0
        assert res["sweep_axis"] is None

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="tol_custom"):
            make_config(study="cat", tol_custom=0.5)

    def test_overrides_beat_file_values(self):
        cfg = ScenarioConfig.from_mapping(
            {"study": "cat", "workers": 1, "seed": 0},
            workers=4, seed=9, out_dir="elsewhere")
        assert cfg.workers == 4
        assert cfg.seed == 9
        assert cfg.out_dir == "elsewhere"

    @pytest.mark.parametrize("key", ["alpha", "phi", "t_max", "omega", "g",
                                     "grid_nsigma", "tol_tail"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_non_finite_number_rejected(self, key, value):
        with pytest.raises(ValidationError, match=rf"^{key}: must be finite"):
            make_config(study="cat", **{key: value})

    @pytest.mark.parametrize("value", [False, 0, "", []])
    def test_falsy_out_dir_rejected(self, value):
        with pytest.raises(ValidationError, match="out_dir"):
            make_config(study="cat", out_dir=value)

    def test_emit_flag_must_be_boolean(self):
        with pytest.raises(ValidationError, match="emit_wigner_bin"):
            make_config(study="wigner", emit_wigner_bin="yes")


_RESOLVED = make_config(study="cat").resolved()
# well-typed values; sweep values may still hold NaN or +-Infinity
_TYPED = {"study": st.sampled_from(STUDY_NAMES),
          "sweep_axis": st.sampled_from(SWEEP_AXES),
          "sweep_values": st.lists(st.integers(1, 8) | st.floats(), min_size=1,
                                   max_size=3, unique_by=repr)}
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6).map(json.dumps)
_NON_FINITE = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999",
                               "[1.0, -Infinity]"])
_SWEEP_KEYS = ("sweep_axis", "sweep_values")
_OTHER_KEYS = sorted(set(_RESOLVED) - {"study", *_SWEEP_KEYS})


def _value_text(key):
    typed = _TYPED.get(key, st.just(_RESOLVED[key])).map(json.dumps)
    return st.booleans().flatmap(
        lambda ok: typed if ok else st.one_of(_ANY_JSON, _NON_FINITE))


def _entries(keys):
    return st.fixed_dictionaries({k: _value_text(k) for k in keys})


# study, maybe the sweep keys, and up to three other keys, each set half
# the time to its default (or a well-typed choice) and otherwise to any
# JSON value or a non-finite token
_CONFIG_TEXT = st.tuples(
    _entries(["study"]),
    st.fixed_dictionaries({}, optional={k: _value_text(k) for k in _SWEEP_KEYS}),
    st.lists(st.sampled_from(_OTHER_KEYS), unique=True, max_size=3).flatmap(_entries),
).map(lambda parts: "\n".join(f"{k} = {v}" for part in parts
                               for k, v in part.items()))


def _leaves(value):
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_CONFIG_TEXT)
def test_config_text_raises_only_validation_error(text):
    try:
        config = ScenarioConfig.from_mapping(parse_config(text))
    except ValidationError:
        return
    floats = [v for v in _leaves(list(config.resolved().values()))
              if isinstance(v, float)]
    assert all(math.isfinite(v) for v in floats)
    assert dataclasses.replace(config) == config


# ---------------------------------------------------------------- studies

class TestSpinClassicalStudy:
    def test_seeded_run_has_brute_check_column(self, tmp_path):
        rec = run_scenario(make_config(
            study="spin-classical", n_atoms=8, delta=1.0, t_max=2 * math.pi,
            n_steps=8, seed=3, out_dir=str(tmp_path)))
        assert rec.columns[-1] == "closed_vs_brute_max_dev"
        devs = [row[-1] for row in rec.rows]
        assert max(devs) <= 1e-10
        assert rec.summary["brute_max_deviation"] <= 1e-10
        assert (tmp_path / "spin-classical.csv").exists()

    def test_explicit_spin_coefficients(self, tmp_path):
        s = 1 / math.sqrt(2)
        rec = run_scenario(make_config(
            study="spin-classical", n_atoms=2, delta=0.5, n_steps=2,
            spin_source="explicit",
            spin_a=[[s, 0.0], [s, 0.0]], spin_b=[[s, 0.0], [0.0, s]],
            out_dir=str(tmp_path)))
        # xi = 2 sum Re(a* b)/N = (2/2)(1/2 + 0) = 0.5
        assert rec.summary["xi"] == pytest.approx(0.5, abs=1e-15)
        assert rec.summary["xi_prime"] == pytest.approx(0.5, abs=1e-15)

    def test_brute_force_skipped_beyond_limit(self, tmp_path):
        rec = run_scenario(make_config(
            study="spin-classical", n_atoms=16, delta=1.0, n_steps=1,
            out_dir=str(tmp_path)))
        assert rec.summary["brute_max_deviation"] is None
        assert math.isnan(rec.rows[0][-1])


class TestCatStudy:
    def test_free_field_matches_exactly(self, tmp_path):
        # g = 0: the field just rotates, which the closed form reproduces
        # exactly; detuning only rotates the collective spin underneath.
        rec = run_scenario(make_config(
            study="cat", g=0.0, delta=0.3, n_atoms=2, alpha=1.0,
            n_steps=6, out_dir=str(tmp_path)))
        for row in rec.rows:
            assert row[1] == pytest.approx(1.0, abs=1e-9)

    def test_resonant_coupling_exact_at_zero_detuning(self, tmp_path):
        rec = run_scenario(make_config(
            study="cat", g=0.25, delta=0.0, n_atoms=4, alpha=1.5,
            t_max=math.pi, n_steps=5, out_dir=str(tmp_path)))
        assert rec.summary["min_fidelity"] >= 1.0 - 1e-8
        assert rec.summary["max_norm_drift"] <= 1e-9


class TestFockStudy:
    def test_superposition_exact_at_zero_detuning(self, tmp_path):
        rec = run_scenario(make_config(
            study="fock", g=0.2, delta=0.0, n_atoms=2, fock_k=2,
            t_max=math.pi, n_steps=4, out_dir=str(tmp_path)))
        assert rec.summary["min_fidelity"] >= 1.0 - 1e-10


class TestWignerStudy:
    def test_artifacts_and_formats_agree(self, tmp_path):
        base = dict(study="wigner", g=0.25, n_atoms=2, alpha=1.5, n_steps=3)
        rec_csv = run_scenario(make_config(**base, out_dir=str(tmp_path / "a")))
        rec_bin = run_scenario(make_config(**base, emit_wigner_bin=True,
                                           out_dir=str(tmp_path / "b")))
        assert "wigner_avg.csv" in rec_csv.manifest
        assert "wigner_avg.wgrd" in rec_bin.manifest
        ga = load_csv(tmp_path / "a" / "wigner_avg.csv")
        gb = load_wgrd(tmp_path / "b" / "wigner_avg.wgrd")
        assert np.array_equal(ga.values, gb.values)
        assert rec_csv.summary["sup_averaged"] == rec_bin.summary["sup_averaged"]

    def test_offset_fit_recovers_closed_form(self, tmp_path):
        rec = run_scenario(make_config(
            study="wigner", g=0.25, n_atoms=4, alpha=2.0, n_steps=4,
            out_dir=str(tmp_path)))
        for _, _, closed, fit in rec.rows:
            # fit returns the principal value; compare on the circle
            assert abs(np.exp(1j * fit) - np.exp(1j * closed)) < 1e-6
        assert rec.summary["average_report"]["converged"]
        assert rec.summary["visibility_t0"] == pytest.approx(2.0, abs=0.1)


class TestDysonStudy:
    def test_rows_follow_corrections_contract(self, tmp_path):
        rec = run_scenario(make_config(
            study="dyson-scaling", delta=0.02, g=0.3, n_atoms=2,
            t_max=math.pi, n_steps=4, out_dir=str(tmp_path)))
        assert rec.columns == ("order", "N", "t", "amplitude_norm",
                               "quadrature_error")
        raw = (tmp_path / "dyson-scaling.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "order,N,t,amplitude_norm,quadrature_error"
        assert len(lines) == len(rec.rows) + 1
        for line, row in zip(lines[1:], rec.rows):
            cells = line.split(",")
            assert (int(cells[0]), int(cells[1])) == (row[0], row[1])
            # every float cell round-trips exactly
            assert [float(c) for c in cells[2:]] == list(row[2:])
        # n_steps+1 first-order rows plus one second-order row at t_max
        assert len(rec.rows) == 6
        assert rec.rows[-1][0] == 2
        assert rec.summary["first_amplitude"] == pytest.approx(0.0355542, rel=1e-4)
        assert rec.summary["ratio_second_first"] == pytest.approx(
            rec.rows[-1][3] / rec.rows[-2][3], rel=1e-12)


class TestConvergenceStudy:
    def test_first_order_gain_reported(self, tmp_path):
        rec = run_scenario(make_config(
            study="convergence", delta=0.025, g=0.25, n_atoms=2, alpha=1.0,
            t_max=math.pi, n_steps=4, out_dir=str(tmp_path)))
        assert rec.summary["correction_gain"] >= 8.0
        assert rec.summary["infidelity"] < rec.summary["deficit"]
        assert rec.rows[0][2] == pytest.approx(0.0, abs=1e-12)  # deficit at t=0


# ---------------------------------------------------------------- records

class TestRunRecord:
    def test_manifest_matches_disk(self, tmp_path):
        rec = run_scenario(make_config(
            study="wigner", g=0.25, n_atoms=2, alpha=1.5, n_steps=2,
            emit_wigner_bin=True, out_dir=str(tmp_path)))
        for name, size in rec.manifest.items():
            assert (tmp_path / name).stat().st_size == size
        assert set(rec.manifest) == {"wigner.csv", "wigner_avg.wgrd"}

    def test_identical_configs_identical_csv(self, tmp_path):
        base = dict(study="cat", g=0.2, delta=0.1, n_atoms=2, alpha=1.0,
                    n_steps=4)
        run_scenario(make_config(**base, out_dir=str(tmp_path / "a")))
        run_scenario(make_config(**base, out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "cat.csv").read_bytes() == \
            (tmp_path / "b" / "cat.csv").read_bytes()
        ja = json.loads((tmp_path / "a" / "record.json").read_text())
        jb = json.loads((tmp_path / "b" / "record.json").read_text())
        ja["config"]["out_dir"] = jb["config"]["out_dir"] = None
        del ja["wall_time_s"], jb["wall_time_s"]
        assert ja == jb

    def test_record_json_is_strict_utf8_sorted(self, tmp_path):
        rec = run_scenario(make_config(
            study="spin-classical", n_atoms=16, delta=1.0, n_steps=1,
            out_dir=str(tmp_path)))
        raw = (tmp_path / "record.json").read_bytes()
        doc = json.loads(raw.decode("utf-8"))  # NaN would fail strict parsing
        assert doc["summary"]["brute_max_deviation"] is None
        keys = list(doc)
        assert keys == sorted(keys)
        assert rec.wall_time_s >= 0.0


# ---------------------------------------------------------------- sweeps

class TestRunSweep:
    def test_no_axis_matches_single_run(self, tmp_path):
        base = dict(study="cat", g=0.2, delta=0.1, n_atoms=2, alpha=1.0,
                    n_steps=3)
        solo = run_scenario(make_config(**base, out_dir=str(tmp_path / "solo")))
        records, aggregate = run_sweep(
            make_config(**base, out_dir=str(tmp_path / "sweep")))
        assert len(records) == 1
        assert aggregate["axis"] is None
        assert not aggregate["partial"]
        assert (tmp_path / "solo" / "cat.csv").read_bytes() == \
            (tmp_path / "sweep" / "cat.csv").read_bytes()

    def test_fluctuation_slope_aggregate(self, tmp_path):
        _, aggregate = run_sweep(make_config(
            study="spin-classical", delta=1.0, n_steps=2, seed=7,
            sweep_axis="n_atoms", sweep_values=[4, 8, 16, 32],
            out_dir=str(tmp_path)))
        # identical tiled site at every point: the -1/2 law is exact
        assert aggregate["aggregates"]["exponent_fluctuation"] == \
            pytest.approx(-0.5, abs=1e-12)
        assert aggregate["aggregates"]["r_squared_fluctuation"] == \
            pytest.approx(1.0, abs=1e-12)

    def test_worker_count_cannot_change_bytes(self, tmp_path):
        base = dict(study="spin-classical", delta=1.0, n_steps=2, seed=5,
                    sweep_axis="n_atoms", sweep_values=[4, 8, 16, 32])
        run_sweep(make_config(**base, workers=1, out_dir=str(tmp_path / "w1")))
        run_sweep(make_config(**base, workers=4, out_dir=str(tmp_path / "w4")))
        for n in [4, 8, 16, 32]:
            a = (tmp_path / "w1" / f"n_atoms_{n}" / "spin-classical.csv").read_bytes()
            b = (tmp_path / "w4" / f"n_atoms_{n}" / "spin-classical.csv").read_bytes()
            assert a == b
        s1 = json.loads((tmp_path / "w1" / "sweep.json").read_text())
        s4 = json.loads((tmp_path / "w4" / "sweep.json").read_text())
        for s in (s1, s4):
            for pt in s["points"]:
                pt["out_dir"] = None
        assert s1 == s4

    def test_value_order_cannot_change_bytes(self, tmp_path):
        base = dict(study="spin-classical", delta=1.0, n_steps=2, seed=5,
                    out_dir=str(tmp_path), sweep_axis="n_atoms")
        run_sweep(make_config(**base, sweep_values=[4, 8, 16]))
        first = (tmp_path / "sweep.json").read_bytes()
        run_sweep(make_config(**base, sweep_values=[16, 4, 8]))
        assert (tmp_path / "sweep.json").read_bytes() == first

    def test_point_failure_marks_partial(self, tmp_path):
        records, aggregate = run_sweep(make_config(
            study="cat", g=0.2, delta=0.1, n_atoms=2, alpha=1.0, n_steps=2,
            sweep_axis="alpha", sweep_values=[-1.0, 0.5, 1.0, 1.5, 2.0],
            out_dir=str(tmp_path)))
        assert aggregate["partial"]
        failed = [e for e in aggregate["points"] if "error" in e]
        assert len(failed) == 1
        assert "alpha" in failed[0]["error"]
        assert sum(r is not None for r in records) == 4

    def test_non_finite_point_marks_partial(self, tmp_path):
        records, aggregate = run_sweep(make_config(
            study="cat", g=0.2, delta=0.1, n_atoms=2, alpha=1.0, n_steps=2,
            sweep_axis="alpha", sweep_values=[1.0, math.inf],
            out_dir=str(tmp_path)))
        assert aggregate["partial"]
        [failed] = [e for e in aggregate["points"] if "error" in e]
        assert failed["value"] == math.inf
        assert "alpha" in failed["error"]
        assert records[0] is not None and records[1] is None
        assert (tmp_path / "alpha_1p0" / "cat.csv").exists()

    def test_declared_fit_needs_enough_points(self, tmp_path):
        _, aggregate = run_sweep(make_config(
            study="convergence", delta=0.05, g=0.25, n_atoms=2, alpha=1.0,
            t_max=math.pi, n_steps=2, sweep_axis="delta",
            sweep_values=[0.0125, 0.025, 0.05], out_dir=str(tmp_path)))
        assert "fit_error_deficit" in aggregate["aggregates"]


# ---------------------------------------------------------------- CLI

class TestCli:
    def test_every_study_is_a_subcommand(self):
        runner = CliRunner()
        out = runner.invoke(cli_main, ["--help"]).output
        for study in STUDY_NAMES:
            assert study in out

    def test_cat_study_runs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("g = 0.0\ndelta = 0.3\nn_atoms = 2\nalpha = 1.0\n"
                       "n_steps = 3\n", encoding="utf-8")
        result = CliRunner().invoke(
            cli_main, ["cat", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o" / "cat.csv").exists()
        assert "cat: 4 rows" in result.output

    def test_validation_error_names_field(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("omega = -1.0\n", encoding="utf-8")
        result = CliRunner().invoke(cli_main, ["cat", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "omega" in result.output

    def test_emit_toggles_binary_grid(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("g = 0.25\nn_atoms = 2\nalpha = 1.5\nn_steps = 2\n",
                       encoding="utf-8")
        result = CliRunner().invoke(
            cli_main, ["wigner", "--config", str(cfg),
                       "--out", str(tmp_path / "o"), "--emit", "wigner-bin"])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "o" / "wigner_avg.wgrd").exists()
        assert not (tmp_path / "o" / "wigner_avg.csv").exists()

    def test_sweep_reports_exponents(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text('study = "spin-classical"\ndelta = 1.0\nn_steps = 2\n'
                       'sweep_axis = "n_atoms"\nsweep_values = [4, 8, 16, 32]\n',
                       encoding="utf-8")
        result = CliRunner().invoke(
            cli_main, ["sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "o"), "--workers", "2"])
        assert result.exit_code == 0, result.output
        line = next(l for l in result.output.splitlines()
                    if l.startswith("exponent_fluctuation:"))
        assert float(line.split(":")[1]) == pytest.approx(-0.5, abs=1e-12)

    def test_non_numeric_sweep_value_is_a_message(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text('study = "spin-classical"\nsweep_axis = "alpha"\n'
                       'sweep_values = [1.0, "x"]\n', encoding="utf-8")
        result = CliRunner().invoke(
            cli_main, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Error: sweep_values: must be numbers" in result.output

    def test_sweep_partial_exits_nonzero(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text('study = "cat"\ng = 0.2\ndelta = 0.1\nn_atoms = 2\n'
                       'alpha = 1.0\nn_steps = 2\nsweep_axis = "alpha"\n'
                       'sweep_values = [-1.0, 1.0]\n', encoding="utf-8")
        result = CliRunner().invoke(
            cli_main, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code != 0
        assert "alpha" in result.output

    def test_missing_config_flag_is_usage_error(self):
        result = CliRunner().invoke(cli_main, ["cat"])
        assert result.exit_code == 2
