"""Steadiness report: run the benchmark on many seeds and summarise the spread.

Usage::

    python3 campaignbench/steadiness.py --seeds 10 --sets 2

Each set runs ``run.py --trace 0`` once per (seed, workload) for every
workload in BENCHMARK.json, seeds interleaved across workloads so host
drift hits every workload alike; set ``k`` uses seeds ``100*k + 1 ..``.
Then one ``--trace 1`` run per workload gives ``trace.overhead_share``
and the ledger residual.

For every end-to-end metric and workload it prints each set's sample
count, quartiles and median (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median`` against the metric's bound from BENCHMARK.json,
and each later set's median shift against the first.  A spread above
the bound means the metric cannot resolve a change of that size; a
later PR should then call it unresolved, not unchanged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return result


def main(argv: List[str] = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m: [[] for _ in range(args.sets)] for m in bounds} for w in names
    }
    for k in range(args.sets):
        for seed in range(100 * k + 1, 100 * k + 1 + args.seeds):
            for workload in names:
                result = run_once(workload, seed, args.seconds, 0)
                for metric in bounds:
                    values[workload][metric][k].append(result["metrics"][metric]["value"])
                print(f"set {k + 1} seed {seed} {workload}: "
                      + ", ".join(f"{m}={v[k][-1]:.4f}" for m, v in values[workload].items()),
                      file=sys.stderr, flush=True)
    traced = {w: run_once(w, 0, args.seconds, 1)["metrics"] for w in names}

    print(f"{'workload':12s} {'metric':12s} set  n        q1    median        q3  spread  bound  shift")
    for workload in names:
        for metric, bound in bounds.items():
            first = None
            for k, series in enumerate(values[workload][metric]):
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                shift = "" if first is None else f"{median / first - 1.0:+.3f}"
                first = median if first is None else first
                flag = "" if spread <= bound else "  WIDE"
                print(f"{workload:12s} {metric:12s} {k + 1:3d} {len(series):2d} {q1:9.4f} "
                      f"{median:9.4f} {q3:9.4f} {spread:7.3f} {bound:6.2f} {shift:>6s}{flag}")
        layer = traced[workload]
        print(f"{workload:12s} trace.overhead_share {layer['trace.overhead_share']['value']:+.3f}, "
              f"ledger.residual_share {layer['ledger.residual_share']['value']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
