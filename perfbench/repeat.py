"""Repeat the benchmark over several seeds and report each end-to-end
metric's spread: the distance between the first and third quartile of
its per-run values, as a share of their median.

    python3 perfbench/repeat.py --workload all --seeds 1-10 [--record PATH]

Run from the root of a checkout.  Each run is ``run.py --trace 0`` with
the ``run_seconds`` of BENCHMARK.json.  ``--record`` merges the per-run
values and the summary into PATH under the key ``repeats``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

RUN = str(Path(__file__).with_name("run.py"))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--record")
    args = ap.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]

    summary: dict = {}
    for workload in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(f"{workload} seed {seed} correct={result['correct']} "
                  + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
        stats = {}
        for name in bounds:
            vals = [r["metrics"][name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"{workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {(q3 - q1) / med:.4f} (bound {bounds[name]})")
        summary[workload] = {"runs": runs, "stats": stats}

    if args.record:
        path = Path(args.record)
        data = json.loads(path.read_text()) if path.exists() else {}
        data.setdefault("repeats", {}).update(summary)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
