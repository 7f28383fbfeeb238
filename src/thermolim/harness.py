"""Reproducible study driver: scenario configs, the six study pipelines,
deterministic sweeps, and CSV/JSON/binary artifacts.

Config files are flat ``key = value`` text with JSON-typed values; every
run echoes the fully resolved config (defaults included) into its JSON
record so each number in an output table can be traced to the knobs that
produced it.  CSV bodies are deterministic byte-for-byte for a given
resolved config; wall-clock time lives only in the JSON metadata.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import numpy.random  # loaded here, not lazily inside the first seeded study

from .dyson import (
    corrections_on_grid,
    first_order_correction,
    oscillatory_integral,
    scaling_fit,
)
from .errors import CapacityError, ThermolimError, ValidationError
from .evolver import (
    JointState,
    evolve_grid,
    fidelity,
    project_chi,
)
from .fock import CAPACITY_LIMIT, FieldState, ModelParams, cat_state, choose_cutoff
from .propagator import evolve_cat_leading, evolve_fock_leading, sector_frame
from .spins import (
    BRUTE_FORCE_LIMIT,
    ProductSpinSpec,
    chi_prime_state,
    chi_state,
    ehrenfest_residual,
    random_spec,
    sigma_moments_bruteforce,
    sigma_moments_closed,
)
from .wigner import (
    MAX_SPACING,
    count_time_zero_crossings,
    default_grid,
    fit_interference_offset,
    fringe_visibility,
    interference_phase_offset,
    save_csv,
    save_wgrd,
    time_average,
    w_int_closed,
    w_int_mean,
    wigner_numeric,
)

__all__ = [
    "STUDY_NAMES",
    "SWEEP_AXES",
    "ScenarioConfig",
    "RunRecord",
    "parse_config",
    "load_config",
    "run_scenario",
    "run_sweep",
]

# numeric knobs a sweep may scan; everything else is fixed per sweep
SWEEP_AXES = ("n_atoms", "delta", "g", "alpha", "phi", "fock_k",
              "t_max", "seed")

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def parse_config(text: str) -> dict[str, Any]:
    """Parse flat ``key = value`` lines; values are JSON literals.

    Blank lines and lines starting with ``#`` are skipped; a ``#`` after a
    value is part of it, so a trailing comment fails to parse.  Unknown
    keys, duplicate keys, and unparseable or non-finite values raise a
    validation error naming the offender.
    """
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ValidationError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = json.loads(rhs.strip(), parse_float=_finite_float,
                                  parse_constant=_finite_float)
        except (ValueError, RecursionError) as exc:  # too deep a nesting recurses
            raise ValidationError(
                f"line {lineno}: value for {key!r} is not a JSON literal: {exc}"
            ) from exc
    return out


def load_config(path) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def _require(cond: bool, name: str, msg: str) -> None:
    if not cond:
        raise ValidationError(f"{name}: {msg}")


def _as_int(value: Any, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             name, f"must be an integer, got {value!r}")
    return value


def _as_number(value: Any, name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             name, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    _require(math.isfinite(number), name, f"must be finite, got {value!r}")
    return number


# ScenarioConfig's checks by field annotation; the module postpones
# annotations, so ``dataclasses.Field.type`` is the annotation's text.
_TYPE_CHECKS = {"float": _as_number, "int": _as_int}


def _spin_pairs(value: Any, name: str, n_atoms: int) -> tuple:
    _require(isinstance(value, (list, tuple)) and len(value) == n_atoms, name,
             f"must be a list of {n_atoms} [re, im] pairs")
    try:
        return tuple((_as_number(re_, name), _as_number(im_, name))
                     for re_, im_ in value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: entries must be [re, im] pairs") from exc


def _spin_vector(pairs) -> np.ndarray:
    return np.array([complex(re_, im_) for re_, im_ in pairs])


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved, validated description of one study run.

    Each field is one config key with its default.  ``params`` is derived:
    the ``ModelParams`` of ``delta``, ``g`` and ``n_atoms``, which like
    ``t_max`` are in units of the mode frequency omega (no ``omega`` key)."""

    study: str | None = None
    delta: float = 0.0
    g: float = 0.25
    n_atoms: int = 4
    alpha: float = 2.0
    phi: float = math.pi / 2
    fock_k: int = 0
    initial_state: str = "vacuum"      # dyson-scaling: vacuum | cat | fock
    spin_a: tuple | None = None        # spin-classical: one (re, im) pair per site,
    spin_b: tuple | None = None        # both or neither; neither draws a seeded site
    t_max: float = 2 * math.pi
    n_steps: int = 16
    grid_spacing: float = 0.1
    seed: int = 0
    workers: int = 1                   # validated only: sweep points run in the caller's thread
    out_dir: str | None = None         # None resolves to runs/<study>
    emit_wigner_bin: bool = False
    sweep_axis: str | None = None
    sweep_values: tuple | None = None

    def __post_init__(self) -> None:
        def put(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        _require(self.study in STUDY_NAMES, "study",
                 f"must be one of {list(STUDY_NAMES)}, got {self.study!r}")
        for f in dataclasses.fields(self):
            check = _TYPE_CHECKS.get(f.type)
            if check is not None:
                put(f.name, check(getattr(self, f.name), f.name))
        _require(self.delta >= 0, "delta", f"must be >= 0, got {self.delta}")
        _require(self.g >= 0, "g", f"must be >= 0, got {self.g}")
        _require(self.n_atoms >= 1, "n_atoms", f"must be >= 1, got {self.n_atoms}")
        put("params", ModelParams(delta=self.delta, g=self.g, n_atoms=self.n_atoms))

        _require(self.alpha >= 0, "alpha", f"must be >= 0, got {self.alpha}")
        _require(self.fock_k >= 0, "fock_k", f"must be >= 0, got {self.fock_k}")
        _require(self.initial_state in ("vacuum", "cat", "fock"), "initial_state",
                 f"must be vacuum, cat, or fock, got {self.initial_state!r}")
        # a delta sweep replaces delta at every point, and point() checks each
        if self.study in ("dyson-scaling", "convergence") and self.sweep_axis != "delta":
            _require(self.delta > 0, "delta",
                     f"{self.study} measures detuning corrections; need delta > 0")

        if self.spin_a is not None or self.spin_b is not None:
            put("spin_a", _spin_pairs(self.spin_a, "spin_a", self.n_atoms))
            put("spin_b", _spin_pairs(self.spin_b, "spin_b", self.n_atoms))
            norms = (np.abs(_spin_vector(self.spin_a)) ** 2
                     + np.abs(_spin_vector(self.spin_b)) ** 2)
            _require(bool(np.all(np.abs(norms - 1.0) <= 1e-12)), "spin_b",
                     "per-site |a|^2 + |b|^2 must equal 1")

        _require(self.t_max > 0, "t_max", f"must be positive, got {self.t_max}")
        _require(self.n_steps >= 1, "n_steps", f"must be >= 1, got {self.n_steps}")
        _require(0 < self.grid_spacing <= MAX_SPACING, "grid_spacing",
                 f"must lie in (0, {MAX_SPACING}], got {self.grid_spacing}")
        _require(0 <= self.seed < 2**64, "seed", f"must fit in u64, got {self.seed}")
        _require(self.workers >= 1, "workers", f"must be >= 1, got {self.workers}")

        axis, values = self.sweep_axis, self.sweep_values
        if axis is not None:
            _require(axis in SWEEP_AXES, "sweep_axis",
                     f"must be one of {list(SWEEP_AXES)}, got {axis!r}")
            _require(isinstance(values, (list, tuple)) and len(values) > 0,
                     "sweep_values", "must be a nonempty list when sweep_axis is set")
            _require(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in values),
                     "sweep_values", f"must be numbers, got {list(values)!r}")
            _require(len(set(map(repr, values))) == len(values),
                     "sweep_values", "values must be distinct")
            put("sweep_values", tuple(values))
        else:
            _require(values is None, "sweep_values",
                     "set sweep_axis to use sweep_values")

        if self.out_dir is None:
            put("out_dir", f"runs/{self.study}")
        _require(isinstance(self.out_dir, str) and self.out_dir != "", "out_dir",
                 f"must be a nonempty path string, got {self.out_dir!r}")
        _require(isinstance(self.emit_wigner_bin, bool), "emit_wigner_bin",
                 f"must be true or false, got {self.emit_wigner_bin!r}")

    @classmethod
    def from_mapping(cls, raw: dict[str, Any], **overrides: Any) -> "ScenarioConfig":
        """Build from parsed config keys; overrides that are not None win."""
        merged = dict(raw)
        merged.update((k, v) for k, v in overrides.items() if v is not None)
        keys = {f.name for f in dataclasses.fields(cls)}
        for key in merged:
            if key not in keys:
                raise ValidationError(f"{key}: unknown config key")
        return cls(**merged)

    def resolved(self) -> dict[str, Any]:
        """Flat JSON-ready echo of every knob, defaults included."""
        return dataclasses.asdict(self)

    def point(self, value: Any, out_dir: str) -> "ScenarioConfig":
        """Single sweep point: axis value substituted, sweep fields cleared."""
        return dataclasses.replace(self, **{self.sweep_axis: value},
                                   sweep_axis=None, sweep_values=None,
                                   out_dir=out_dir)


@dataclass(frozen=True)
class RunRecord:
    config: ScenarioConfig
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict[str, Any]
    convergence_flags: tuple[str, ...]
    wall_time_s: float
    manifest: dict[str, int]
    out_dir: str


# ---------------------------------------------------------------- output

def _fmt_cell(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("no boolean CSV cells")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv_bytes(columns, rows) -> bytes:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _jsonable(obj: Any) -> Any:
    """Strict-JSON form: numpy scalars unwrapped, non-finite floats null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _json_bytes(obj: Any) -> bytes:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False)
    return (text + "\n").encode("utf-8")


def _time_grid(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.n_steps + 1)


def _leading_field(config: ScenarioConfig, kind: str, t: float,
                   ncut: int) -> FieldState:
    """Closed leading-order field at t of the cat, the model's
    (|0> + |k>)/sqrt2 superposition, or vacuum."""
    if kind == "cat":
        return evolve_cat_leading(config.params, config.alpha, config.phi, t, ncut)
    k = config.fock_k if kind == "fock" else 0
    return evolve_fock_leading(config.params, k, t, ncut)


def _initial_field(config: ScenarioConfig, kind: str) -> FieldState:
    """The ``kind`` field at t = 0 on the Fock cutoff that it alone needs."""
    ncut = choose_cutoff(config.params, config.alpha if kind == "cat" else 0.0,
                         config.fock_k if kind == "fock" else 0)
    return _leading_field(config, kind, 0.0, ncut)


@dataclass
class _StudyResult:
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict[str, Any]
    artifacts: list[tuple[str, Callable[[Path], None]]]
    flags: list[str]


# ---------------------------------------------------------------- studies

def _study_spin_classical(config: ScenarioConfig) -> _StudyResult:
    # Without explicit spins ONE seeded site is drawn and tiled: the
    # declared N-sweep aggregate measures the fluctuation-ratio slope at
    # identical per-site coefficients, which is where the -1/2 law is exact.
    p = config.params
    if p.n_atoms > CAPACITY_LIMIT:
        raise CapacityError(f"n_atoms above the limit of {CAPACITY_LIMIT} sites")
    if config.spin_a is not None:
        spec = ProductSpinSpec(_spin_vector(config.spin_a),
                               _spin_vector(config.spin_b))
    else:
        site = random_spec(1, np.random.default_rng(config.seed))
        spec = ProductSpinSpec(np.repeat(site.a, p.n_atoms),
                               np.repeat(site.b, p.n_atoms))
    brute_ok = p.n_atoms <= BRUTE_FORCE_LIMIT
    rows = []
    worst_dev = 0.0
    worst_ehr = 0.0
    for t in _time_grid(config):
        m = sigma_moments_closed(spec, p.delta, t)
        if brute_ok:
            b = sigma_moments_bruteforce(spec, p.delta, t)
            dev = max(abs(x - y) for x, y in zip(m, b))
            worst_dev = max(worst_dev, dev)
        else:
            dev = math.nan
        ratio = math.sqrt(m.var_x) / abs(m.mean_x) if m.mean_x != 0 else math.nan
        worst_ehr = max(worst_ehr, *ehrenfest_residual(spec, p.delta, t, h=1e-5))
        rows.append((t, m.mean_x, m.mean_y, m.mean_z,
                     m.var_x, m.var_y, m.var_z, ratio, dev))
    first = rows[0]
    summary = {
        "xi": spec.xi,
        "xi_prime": spec.xi_prime,
        "fluctuation_ratio_t0": first[7],
        "brute_max_deviation": worst_dev if brute_ok else None,
        "ehrenfest_max_residual": worst_ehr,
    }
    cols = ("t", "mean_x", "mean_y", "mean_z", "var_x", "var_y", "var_z",
            "fluctuation_ratio", "closed_vs_brute_max_dev")
    return _StudyResult(cols, rows, summary, [], [])


def _exact_trajectory(config: ScenarioConfig, kind: str, field0: FieldState):
    """Exact evolution of field0 (x) chi over the time grid, from one
    checked grid call: yields ``(t, state, chi projection, closed
    leading-order field)`` per point."""
    p = config.params
    chi = chi_state(p.n_atoms)
    states = evolve_grid(JointState.from_product(field0, chi, p), config.t_max,
                         config.n_steps)
    for t, state in zip(_time_grid(config), states):
        yield (t, state, project_chi(state, chi),
               _leading_field(config, kind, t, field0.ncut))


def _leading_vs_exact(config: ScenarioConfig, kind: str) -> _StudyResult:
    """Shared cat/fock pipeline: exact joint evolution stepped along the
    grid against the closed leading-order field, fidelity per step."""
    field0 = _initial_field(config, kind)
    rows = []
    for t, state, proj, lead in _exact_trajectory(config, kind, field0):
        rows.append((t, fidelity(lead, proj),
                     float(np.linalg.norm(proj.amplitudes) ** 2),
                     abs(state.norm - 1.0)))
    fids = [r[1] for r in rows]
    summary = {
        "ncut": field0.ncut,
        "min_fidelity": min(fids),
        "final_fidelity": fids[-1],
        "max_norm_drift": max(r[3] for r in rows),
        "final_tail_mass": state.field_marginal().tail_mass(),
    }
    cols = ("t", "fidelity_vs_exact", "chi_weight", "norm_drift")
    return _StudyResult(cols, rows, summary, [], [])


def _study_wigner(config: ScenarioConfig) -> _StudyResult:
    p = config.params
    a, ph = config.alpha, config.phi
    ncut = choose_cutoff(p, a, 0)  # first: it refuses an unbounded N before any grid
    # cover every branch center the window visits
    centers = []
    for t in np.linspace(0.0, config.t_max, 65):
        beta_prime = sector_frame(p.n_atoms, p, t)[1] * cmath.exp(-1j * t)
        rot = np.exp(-1j * t)
        centers.append(beta_prime + a * np.exp(1j * ph) * rot)
        centers.append(beta_prime + a * np.exp(-1j * ph) * rot)
    grid = default_grid(centers, spacing=config.grid_spacing)

    rows = []
    for t in _time_grid(config):
        w = w_int_closed(p, a, ph, t, grid)
        rows.append((t, w.sup_norm(), interference_phase_offset(p, a, ph, t),
                     fit_interference_offset(w, p, a, ph, t)))

    averaged, report = time_average(
        lambda ts: w_int_mean(p, a, ph, ts, grid), (0.0, config.t_max))
    flags = []
    if not report.converged:
        flags.append(f"time average not converged: change {report.max_change:.3e} "
                     f"after {report.doublings} doublings")

    cat0, norm0 = cat_state(a, ph, ncut)
    w_full = wigner_numeric(cat0, grid)
    # two separable Gaussians: one rank-2 product of 1-D factors
    gammas = a * np.exp(np.array([1j, -1j]) * ph)
    xb, pb = math.sqrt(2) * gammas.real, math.sqrt(2) * gammas.imag
    gx = np.exp(-((grid.x_axis[:, None] - xb) ** 2))
    gp = np.exp(-((grid.p_axis - pb[:, None]) ** 2))
    branches = (gx @ gp) / math.pi
    vis = fringe_visibility(w_full, grid.with_values(norm0**2 * branches))

    summary = {
        "grid_nx": grid.nx,
        "grid_np": grid.np,
        "sup_averaged": averaged.sup_norm(),
        "average_report": dataclasses.asdict(report),
        "zero_crossings_per_period": count_time_zero_crossings(p, a, ph),
        "visibility_t0": vis,
        "ncut": ncut,
    }
    name = "wigner_avg.wgrd" if config.emit_wigner_bin else "wigner_avg.csv"
    writer = save_wgrd if config.emit_wigner_bin else save_csv
    artifacts = [(name, lambda path: writer(averaged, path))]
    cols = ("t", "sup_w_int", "offset_closed", "offset_fit")
    return _StudyResult(cols, rows, summary, artifacts, flags)


def _study_dyson_scaling(config: ScenarioConfig) -> _StudyResult:
    p = config.params
    initial = _initial_field(config, config.initial_state)
    flags = []
    rows = []
    firsts, second = corrections_on_grid(p, config.t_max, config.n_steps, initial)
    for t, rec in zip(_time_grid(config), firsts):
        if not rec.converged:
            flags.append(f"first-order quadrature not converged at t={t:.17g}")
        rows.append((1, p.n_atoms, t, rec.amplitude_norm,
                     rec.diagnostics["error_estimate"]))
    first_at_tmax = firsts[-1].amplitude_norm
    if not second.converged:
        flags.append(f"second-order quadrature not converged at t={config.t_max:.17g}")
    rows.append((2, p.n_atoms, config.t_max, second.amplitude_norm,
                 second.diagnostics["error_estimate"]))
    summary = {
        "ncut": initial.ncut,
        "oscillatory_abs": abs(oscillatory_integral(p, config.t_max)),
        "first_amplitude": first_at_tmax,
        "second_amplitude": second.amplitude_norm,
        "ratio_second_first": (second.amplitude_norm / first_at_tmax
                               if first_at_tmax else math.nan),
    }
    cols = ("order", "N", "t", "amplitude_norm", "quadrature_error")
    return _StudyResult(cols, rows, summary, [], flags)


def _study_convergence(config: ScenarioConfig) -> _StudyResult:
    p = config.params
    field0 = _initial_field(config, "cat")
    rows = []
    for t, state, proj, lead in _exact_trajectory(config, "cat", field0):
        weight = float(np.linalg.norm(proj.amplitudes) ** 2)
        residual = float(np.linalg.norm(proj.amplitudes - lead.amplitudes))
        infid = 1.0 - fidelity(lead, proj) if weight > 0 else math.nan
        rows.append((t, weight, 1.0 - weight, residual, infid))

    corr = first_order_correction(p, config.t_max, field0)
    flags = []
    if not corr.converged:
        flags.append(f"first-order quadrature not converged at t={config.t_max:.17g}")
    pred = np.outer(lead.amplitudes, chi_state(p.n_atoms).amplitudes)
    r_lead = float(np.linalg.norm(state.amplitudes - pred))
    pred = pred + np.outer(corr.field_correction.amplitudes,
                           chi_prime_state(p.n_atoms).amplitudes)
    r_corr = float(np.linalg.norm(state.amplitudes - pred))
    last = rows[-1]
    summary = {
        "ncut": field0.ncut,
        "deficit": last[2],
        "residual_leading": r_lead,
        "residual_corrected": r_corr,
        "correction_gain": r_lead / r_corr if r_corr else math.inf,
        "infidelity": last[4],
    }
    cols = ("t", "chi_weight", "norm_deficit", "residual", "infidelity")
    return _StudyResult(cols, rows, summary, [], flags)


_STUDIES = {
    "spin-classical": _study_spin_classical,
    "cat": lambda config: _leading_vs_exact(config, "cat"),
    "fock": lambda config: _leading_vs_exact(config, "fock"),
    "wigner": _study_wigner,
    "dyson-scaling": _study_dyson_scaling,
    "convergence": _study_convergence,
}
STUDY_NAMES = tuple(_STUDIES)


# ---------------------------------------------------------------- drivers

def run_scenario(config: ScenarioConfig) -> RunRecord:
    """Execute one study, write its artifacts, return the run record.

    The CSV body depends only on the resolved config; wall time appears
    only in the JSON record.
    """
    start = time.perf_counter()
    result = _STUDIES[config.study](config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest: dict[str, int] = {}
    csv_name = f"{config.study}.csv"
    body = _csv_bytes(result.columns, result.rows)
    (out / csv_name).write_bytes(body)
    manifest[csv_name] = len(body)
    for name, write in result.artifacts:
        write(out / name)
        manifest[name] = (out / name).stat().st_size

    wall = time.perf_counter() - start
    record = RunRecord(
        config=config, columns=result.columns, rows=result.rows,
        summary=result.summary, convergence_flags=tuple(result.flags),
        wall_time_s=wall, manifest=dict(manifest), out_dir=str(out),
    )
    (out / "record.json").write_bytes(_json_bytes({
        "config": config.resolved(),
        "summary": result.summary,
        "convergence_flags": list(record.convergence_flags),
        "manifest": manifest,
        "wall_time_s": wall,
    }))
    return record


def _point_dir_name(axis: str, value: Any) -> str:
    token = re.sub(r"[^0-9a-zA-Z]+",
                   lambda m: {"-": "m", ".": "p"}.get(m.group(0), "_"),
                   repr(value))
    return f"{axis}_{token}"


def _sweep_aggregates(study: str, axis: str, points) -> dict[str, Any]:
    """scaling_fit wherever the study declares a power law on this axis."""
    wanted = {
        ("spin-classical", "n_atoms"): [("fluctuation", "fluctuation_ratio_t0")],
        ("wigner", "n_atoms"): [("washout", "sup_averaged")],
        ("dyson-scaling", "n_atoms"): [("first_order", "first_amplitude"),
                                       ("second_order", "second_amplitude"),
                                       ("integral", "oscillatory_abs")],
        ("convergence", "delta"): [("deficit", "deficit"),
                                   ("residual", "residual_leading")],
    }.get((study, axis), [])
    out: dict[str, Any] = {}
    for name, key in wanted:
        try:
            fit = scaling_fit([(v, s[key]) for v, s in points])
        except ThermolimError as exc:
            out[f"fit_error_{name}"] = str(exc)
        else:
            out[f"exponent_{name}"] = fit["exponent"]
            out[f"r_squared_{name}"] = fit["r_squared"]
    return out


def _sweep_order(value: Any) -> tuple:
    """Total order on sweep values: numeric, NaN last, equal numbers by repr."""
    nan = value != value
    return (nan, 0 if nan else value, repr(value))


def run_sweep(config: ScenarioConfig) -> tuple[list[RunRecord | None], dict]:
    """Evaluate every sweep point in the calling thread, in sorted axis
    order, and write the aggregate JSON.

    Points are keyed by axis value, so neither ``workers`` nor the order
    the values were written in the config can change any output byte.  A
    failed point is recorded with its error and, when the error carries
    them, its diagnostics; the aggregate is marked partial and the other
    points still run.  A config without a sweep axis is one point run in
    ``out_dir`` itself, and its error is raised.
    """
    out = Path(config.out_dir)
    axis = config.sweep_axis
    if axis is None:
        values, dirs = [None], [str(out)]
    else:
        values = sorted(config.sweep_values, key=_sweep_order)
        dirs = [str(out / _point_dir_name(axis, v)) for v in values]

    records: list[RunRecord | None] = []
    entries = []
    fit_points = []
    for value, pdir in zip(values, dirs):
        entry: dict[str, Any] = {"value": value, "out_dir": pdir}
        entries.append(entry)
        try:
            rec = run_scenario(config if axis is None else config.point(value, pdir))
        except ThermolimError as exc:
            if axis is None:
                raise
            records.append(None)
            entry["error"] = f"{type(exc).__name__}: {exc}"
            if getattr(exc, "diagnostics", None):
                entry["diagnostics"] = exc.diagnostics
            continue
        records.append(rec)
        entry["summary"] = rec.summary
        entry["flags"] = list(rec.convergence_flags)
        fit_points.append((value, rec.summary))

    aggregate = {
        "study": config.study,
        "axis": axis,
        "partial": len(fit_points) < len(values),
        "points": entries,
        "aggregates": _sweep_aggregates(config.study, axis, fit_points),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_bytes(_json_bytes(aggregate))
    return records, aggregate
