"""One measured workload run, in a fresh process.

    python3 perfbench/child.py --workload NAME --config JSON --drawn JSON
        --out DIR --spawn-ns NS [--trace] [--setup-only]

Run from the root of a thermolim checkout; the package is imported from
its ``src`` directory.  ``--spawn-ns`` is the CLOCK_MONOTONIC time at
which the parent started this process, so ``setup_s`` covers interpreter
start, the numpy/scipy/thermolim imports and config validation.  Prints
one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(w).ru_maxrss
              for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _point(record) -> dict:
    return {"summary": record.summary, "flags": list(record.convergence_flags),
            "error": None}


def _work(record) -> dict:
    """Work counts read from one run's outputs."""
    s = record.summary
    work = {"ncut": s.get("ncut"), "rows": len(record.rows),
            "artifact_bytes": sum(record.manifest.values())}
    if "grid_nx" in s:
        work["grid_points"] = s["grid_nx"] * s["grid_np"]
        work["avg_samples"] = s["average_report"]["n_samples"]
    return work


def run_once(harness, config) -> tuple[dict, dict]:
    """Run one study or sweep through the public driver; return the
    outcome the gate reads and the work counts per operation."""
    from thermolim.errors import ThermolimError
    if config.sweep_axis is None:
        try:
            record = harness.run_scenario(config)
        except ThermolimError as exc:
            error = {"summary": {}, "flags": [], "error": f"{type(exc).__name__}: {exc}"}
            return {"partial": False, "points": {"run": error}}, {}
        return {"partial": False, "points": {"run": _point(record)}}, {"run": _work(record)}
    try:
        records, aggregate = harness.run_sweep(config)
    except ThermolimError as exc:
        return {"partial": True, "points": {}, "error": str(exc)}, {}
    points, work = {}, {}
    for entry, record in zip(aggregate["points"], records):
        key = str(entry["value"])
        if record is None:
            points[key] = {"summary": {}, "flags": [], "error": entry["error"]}
        else:
            points[key] = _point(record)
            work[key] = _work(record)
    return {"partial": aggregate["partial"], "points": points}, work


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--drawn", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from thermolim import harness
    raw = json.loads(args.config)
    raw["out_dir"] = args.out
    config = harness.ScenarioConfig.from_mapping(raw)
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import gate
    restore = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        restore = tracer.install(layers.TARGETS)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        outcome, work = run_once(harness, config)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        if restore is not None:
            restore()

    reasons = gate.check(args.workload, json.loads(args.drawn), outcome,
                         gate.load_references())
    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(reasons),
        "failed": sum(1 for r in reasons.values() if r),
        "failures": {k: r for k, r in reasons.items() if r},
        "work": work,
        "environment": _environment(),
    })
    if args.trace:
        result["layers"] = layers.layer_metrics(
            tracer.spans, wall_s, config.workers, threading.get_ident())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
