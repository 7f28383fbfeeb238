"""The program functions the traced run wraps, and the per-layer metrics
built from their spans.

Metric names are ``<module>.<function>.<what>``; ``self_s`` is span time
minus the time covered by child spans.  A layer that a workload does
not reach reads 0 there: that is the "no change" prediction for it.
"""

from __future__ import annotations

import os

from tracer import Span, self_times


def _result(attr, of):
    return lambda args, kwargs, result: {attr: of(result)}


def _correction(args, kwargs, result):
    return {"nodes": result.diagnostics["nodes"], "unconverged": int(not result.converged)}


def _save_csv(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


TARGETS = {
    "thermolim.evolver.evolve_exact": _result("dim", lambda r: r.amplitudes.size),
    "thermolim.evolver.build_hamiltonian": _result("nnz", lambda r: r.matrix.nnz),
    # bytes of the dense matrix built: 16 (ncut+1)^2, computed, not measured traffic
    "thermolim.fock.displacement_matrix": _result("bytes", lambda r: r.nbytes),
    "thermolim.fock.coherent_state": None,
    "thermolim.fock.choose_cutoff": _result("ncut", lambda r: r),
    "thermolim.dyson.first_order_correction": _correction,
    "thermolim.dyson.second_order_correction": _correction,
    "thermolim.dyson.oscillatory_integral": None,
    "thermolim.propagator.apply_uf_sector": None,
    "thermolim.propagator.evolve_cat_leading": None,
    "thermolim.wigner.wigner_numeric": _result("grid_points", lambda r: r.values.size),
    "thermolim.wigner.w_int_closed": None,
    "thermolim.wigner.time_average": _result("samples", lambda r: r[1].n_samples),
    "thermolim.wigner.fit_interference_offset": None,
    "thermolim.wigner.save_csv": _save_csv,
    "thermolim.harness.run_scenario": _result("artifact_bytes", lambda r: sum(r.manifest.values())),
    "thermolim.harness.run_sweep": None,
}

# sizes are reported as the largest seen; every other attribute is summed
_MAX_ATTRS = {"dim", "nnz", "ncut"}

# (metric, unit) in the order BENCHMARK.json lists them
METRICS = [
    ("evolver.evolve_exact.calls", "count"),
    ("evolver.evolve_exact.self_s", "s"),
    ("evolver.evolve_exact.dim", "count"),
    ("evolver.build_hamiltonian.self_s", "s"),
    ("evolver.build_hamiltonian.nnz", "count"),
    ("fock.displacement_matrix.calls", "count"),
    ("fock.displacement_matrix.self_s", "s"),
    ("fock.displacement_matrix.bytes", "B"),
    ("fock.coherent_state.calls", "count"),
    ("fock.coherent_state.self_s", "s"),
    ("fock.choose_cutoff.ncut", "count"),
    ("dyson.first_order_correction.calls", "count"),
    ("dyson.first_order_correction.self_s", "s"),
    ("dyson.first_order_correction.nodes", "count"),
    ("dyson.second_order_correction.calls", "count"),
    ("dyson.second_order_correction.self_s", "s"),
    ("dyson.second_order_correction.nodes", "count"),
    ("dyson.oscillatory_integral.self_s", "s"),
    ("dyson.unconverged", "count"),
    ("propagator.apply_uf_sector.calls", "count"),
    ("propagator.apply_uf_sector.self_s", "s"),
    ("propagator.evolve_cat_leading.calls", "count"),
    ("propagator.evolve_cat_leading.self_s", "s"),
    ("wigner.wigner_numeric.calls", "count"),
    ("wigner.wigner_numeric.self_s", "s"),
    ("wigner.wigner_numeric.grid_points", "count"),
    ("wigner.w_int_closed.calls", "count"),
    ("wigner.w_int_closed.self_s", "s"),
    ("wigner.time_average.self_s", "s"),
    ("wigner.time_average.samples", "count"),
    ("wigner.fit_interference_offset.self_s", "s"),
    ("wigner.save_csv.self_s", "s"),
    ("wigner.save_csv.bytes", "B"),
    ("harness.run_scenario.calls", "count"),
    ("harness.run_scenario.self_s", "s"),
    ("harness.run_sweep.self_s", "s"),
    ("harness.artifact_bytes", "B"),
    ("harness.sweep.busy_s", "s"),
    ("harness.sweep.parallel_eff", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
]


def layer_metrics(spans: list[Span], wall_s: float, workers: int,
                  root_thread: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, except ``trace.overhead_frac``,
    which needs the untraced runs too."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name, _ in METRICS:
        function, _, what = name.rpartition(".")
        matching = [s for s in spans if s.name == function]
        if what == "calls":
            out[name] = len(matching)
        elif what == "self_s":
            out[name] = sum((selfs[s.id] for s in matching), 0.0)
        else:
            vals = [s.attrs.get(what, 0) for s in matching]
            out[name] = max(vals, default=0) if what in _MAX_ATTRS else sum(vals)

    # metrics that combine spans of several functions
    corrections = [s for s in spans if s.name.startswith("dyson.") and "unconverged" in s.attrs]
    out["dyson.unconverged"] = sum(s.attrs["unconverged"] for s in corrections)
    out["harness.artifact_bytes"] = sum(s.attrs.get("artifact_bytes", 0) for s in spans
                                        if s.name == "harness.run_scenario")
    sweeps = [s for s in spans if s.name == "harness.run_sweep"]
    points = [s for s in spans if s.name == "harness.run_scenario" and s.thread != root_thread]
    # CPU time, not span time: under the GIL both workers' spans stay open
    # while only one of them runs
    busy = sum((s.cpu_s for s in points), 0.0)
    out["harness.sweep.busy_s"] = busy
    sweep_wall = sum(s.duration for s in sweeps)
    out["harness.sweep.parallel_eff"] = busy / (workers * sweep_wall) if sweep_wall else 0.0
    out["trace.wall_s"] = wall_s
    # 1 on one thread; above 1 by the time sweep points ran in parallel
    out["trace.accounted_frac"] = sum(selfs.values()) / wall_s
    del out["trace.overhead_frac"]
    return out
