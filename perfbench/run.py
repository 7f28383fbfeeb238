"""thermolim benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--record PATH]

Run from the root of a thermolim checkout.  Each repetition is a fresh
``child.py`` process that validates the seeded config, runs the study
or sweep through the public driver (``run_scenario`` / ``run_sweep``)
and applies the correctness gate.  Repetitions run until the next one
would overrun ``--seconds``; end-to-end metrics are medians over them.
With ``--trace 1`` traced and untraced repetitions alternate and the
per-layer metrics come from the traced ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import layers

CHILD = str(Path(__file__).with_name("child.py"))
OUT = Path(".perfbench_out")
# one BLAS thread per process: the sweep's two workers already fill two cores
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, config: dict, drawn: dict, out: Path, *,
           trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--config", json.dumps(config),
           "--drawn", json.dumps(drawn), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _host() -> dict:
    def cache(index: int) -> str | None:
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.exists() else None

    revision = None
    if Path(".git").exists():
        revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True).stdout.strip() or None
    return {"revision": revision, "nproc": os.cpu_count(),
            "l2_cache": cache(2), "l3_cache": cache(3)}


def _stats(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return metrics and records."""
    config, drawn = inputs.draw(workload, seed)
    print(f"# workload {workload} seed {seed} trace {int(trace)} inputs {json.dumps(drawn)}")
    start = time.monotonic()
    out = OUT / f"{workload}-{os.getpid()}"
    setups = [_spawn(workload, config, drawn, out, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    for kind in itertools.cycle(["plain", "traced"] if trace else ["plain"]):
        have_all = plain and (traced or not trace)
        if have_all and time.monotonic() - start + longest > seconds:
            break
        t0 = time.monotonic()
        rep = _spawn(workload, config, drawn, out, trace=kind == "traced")
        longest = max(longest, time.monotonic() - t0)
        (traced if kind == "traced" else plain).append(rep)
        print(f"# {kind} rep: setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} "
              f"cpu_s={rep['cpu_s']:.4f} peak_rss_mb={rep['peak_rss_mb']:.1f} "
              f"failed={rep['failed']}/{rep['attempted']}"
              + (f" failures={json.dumps(rep['failures'])}" if rep["failures"] else ""))

    reps = plain + traced
    if any(r["work"] != reps[0]["work"] for r in reps):
        print("# warning: work counts differ between repetitions")
    samples = {"setup_s": setups + [r["setup_s"] for r in plain]}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[name] = [r[name] for r in plain]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END}
    if trace:
        plain_wall = metrics["wall_s"]["value"]
        metrics = {}
        for name, unit in layers.METRICS:
            if name == "trace.overhead_frac":
                traced_wall = statistics.median(r["wall_s"] for r in traced)
                value = (traced_wall - plain_wall) / plain_wall
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for name, m in metrics.items():
        extra = f" (median, {_stats(samples[name])})" if name in samples and not trace else ""
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{workload} failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return {"workload": workload, "seed": seed, "trace": trace, "inputs": drawn,
            "config": config, "work": reps[0]["work"],
            "environment": dict(_host(), **reps[0]["environment"], workers=config.get("workers", 1)),
            "samples": samples, "metrics": metrics,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--record", help="merge the full results into this JSON file")
    args = ap.parse_args(argv)
    if not Path("src/thermolim/__init__.py").is_file():
        print("run from the root of a thermolim checkout (src/thermolim not found)",
              file=sys.stderr)
        return 2

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()
    print(f"# environment {json.dumps(results[0]['environment'], sort_keys=True)}")
    for r in results:
        print(f"# work {r['workload']} {json.dumps(r['work'], sort_keys=True)}")

    if args.record:
        path = Path(args.record)
        data = json.loads(path.read_text()) if path.exists() else {}
        section = data.setdefault(f"trace{args.trace}", {})
        for r in results:
            section[r["workload"]] = r
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
