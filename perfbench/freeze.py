"""Freeze the gate's reference values: run every drawable input once and
write perfbench/references.json.

    python3 perfbench/freeze.py

Run from the root of a thermolim checkout, at the commit whose outputs
are the reference.  Every run is traced, and the traced work counts
(calls, nodes, cutoffs, grid points, samples) must be the same at every
input level: that is what lets the seed vary the input without varying
the work.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

import child
import gate
import inputs
import layers
from tracer import Tracer


def _revision() -> str | None:
    if not os.path.isdir(".git"):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def _levels(workload: str) -> list[tuple[str, dict]]:
    if workload == "dyson-sweep":
        config = dict(inputs.WORKLOADS[workload])
        return [("ref", config)]
    return [(str(k), dict(inputs.WORKLOADS[workload], phi=inputs.phi_level(workload, k)))
            for k in range(inputs.PHI_LEVELS)]


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from thermolim import harness
    refs: dict = {"revision": _revision()}
    ok = True
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in inputs.WORKLOADS:
            refs[workload] = {}
            works = set()
            for level, raw in _levels(workload):
                raw["out_dir"] = os.path.join(tmp, workload, level)
                config = harness.ScenarioConfig.from_mapping(raw)
                tracer = Tracer()
                restore = tracer.install(layers.TARGETS)
                t0 = time.perf_counter()
                try:
                    outcome, _ = child.run_once(harness, config)
                finally:
                    restore()
                wall_s = time.perf_counter() - t0
                traced = layers.layer_metrics(tracer.spans, wall_s,
                                              config.workers, threading.get_ident())
                work = {name: traced[name] for name, unit in layers.METRICS if unit == "count"}
                reasons = gate.check(workload, {}, outcome, None)
                if any(reasons.values()):
                    print(f"{workload} level {level}: {reasons}", file=sys.stderr)
                    ok = False
                works.add(json.dumps(work, sort_keys=True))
                for key, point in outcome["points"].items():
                    values = {k: point["summary"][k] for k in gate.REFERENCE_KEYS[workload]}
                    if workload == "dyson-sweep":
                        refs[workload][key] = values
                    else:
                        refs[workload][level] = values
                print(workload, level, f"wall_s={traced['trace.wall_s']:.3f}",
                      json.dumps(work, sort_keys=True), flush=True)
            if len(works) != 1:
                print(f"{workload}: work differs between input levels", file=sys.stderr)
                ok = False
    gate.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
