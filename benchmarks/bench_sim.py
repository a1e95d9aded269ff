"""Wall-clock benchmark of the simulation kernel: fast path vs reference.

Run directly (not collected by pytest, which only looks in ``tests/``)::

    PYTHONPATH=src:benchmarks python benchmarks/bench_sim.py \
        [--quick] [--mode full|layout] \
        [--output BENCH_sim.json] [--check BASELINE.json]

``--mode layout`` skips the simulations and instead micro-benchmarks the
kernel's data structures (flat-array cache lookup/insert/evict and the
bitmask coherence sharer cycle) in ns/op; see
:func:`run_layout_benchmark`.  The default ``--mode full`` measures
whole simulations:

For each (workload, core count) point the benchmark measures simulated
ops per host second three ways:

1. ``reference`` — the pre-fast-path execution model: streams generated
   fresh (lazy generators) and interpreted one op per scheduler step
   through the full controller call chain;
2. ``fast_cold`` — compiled streams (compile time included) on the
   fast-path kernel;
3. ``fast_warm`` — compile cache warm (the sweep steady state: every
   V/f point after the first reuses the compiled streams);
4. ``fast_warm_telemetry`` — same as ``fast_warm`` but with an enabled
   :class:`repro.telemetry.trace.Tracer` installed, measuring what
   ``--telemetry-dir`` costs in the kernel loop.  The run doubles the
   geomean tracing overhead into the summary, and the benchmark exits
   non-zero when it exceeds ``--max-telemetry-overhead`` (default 15%).

Each mode runs ``--repeats`` times and keeps the best (least-noise)
time for its ops/sec.  The overhead is instead the median over repeats
of the paired ratio traced over ``fast_warm``, each pair timed back to
back, so one noisy 10-25 ms run cannot trip the gate.  Counters are
asserted identical between reference, fast, and fast-with-telemetry on
every point, so the benchmark doubles as an end-to-end equivalence
check.

``--check BASELINE.json`` guards against perf regressions in CI: for
every point present in both runs it compares ``speedup_warm`` (warm
fast-path ops/sec over reference ops/sec *from the same run on the same
machine*) and fails if it dropped by more than ``--tolerance`` (default
30%).  Comparing the ratio rather than raw ops/sec keeps the check
meaningful across machines of different speeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict

from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.ops import OpStreamCache, compile_workload
from repro.telemetry.trace import Tracer, get_tracer, set_tracer
from repro.workloads import WorkloadModel, workload_by_name

FULL_APPS = ("FMM", "LU", "Ocean", "Radix")
FULL_CORE_COUNTS = (1, 4, 16)
QUICK_APPS = ("FMM", "Ocean")
QUICK_CORE_COUNTS = (4,)
QUICK_REPEATS = 15
SCHEMA = "bench-sim-v1"


def counters(result):
    """The simulated counters of one run (for the equivalence assert)."""
    return (
        result.execution_time_ps,
        [asdict(s) for s in result.core_stats],
        asdict(result.coherence),
        result.memory_requests,
        result.lock_acquires,
        result.barriers,
    )


def bench_point(app: str, n: int, scale: float, repeats: int) -> dict:
    """Measure one (workload, core count) point in all three modes."""
    model = WorkloadModel(workload_by_name(app).spec.scaled(scale))
    config = CMPConfig(n_cores=n)
    timing = model.core_timing()
    warmup = model.warmup_barriers

    def reference_run():
        start = time.perf_counter()
        result = ChipMultiprocessor(config, fast_path=False).run(
            [model.thread_ops(t, n) for t in range(n)],
            timing,
            warmup_barriers=warmup,
        )
        return result, time.perf_counter() - start

    def fast_run(cache):
        start = time.perf_counter()
        compiled = compile_workload(model, n, cache=cache)
        # The whole program, not just its streams: the kernel consumes
        # the memoized private-line classification for the wide horizon.
        result = ChipMultiprocessor(config, fast_path=True).run(
            compiled.program, timing, warmup_barriers=warmup
        )
        return result, time.perf_counter() - start

    def traced_fast_run(cache):
        tracer = Tracer(enabled=True)
        previous = get_tracer()
        set_tracer(tracer)
        try:
            return fast_run(cache)
        finally:
            tracer.drain_since(0)
            set_tracer(previous)

    best = {}
    traced_ratios = []
    reference = fast = traced = None
    for _ in range(repeats):
        reference, t_ref = reference_run()
        cold_cache = OpStreamCache()
        fast, t_cold = fast_run(cold_cache)  # compile included
        fast, t_warm = fast_run(cold_cache)  # cache hit
        traced, t_traced = traced_fast_run(cold_cache)  # cache hit + tracer
        for mode, seconds in (
            ("reference", t_ref),
            ("fast_cold", t_cold),
            ("fast_warm", t_warm),
            ("fast_warm_telemetry", t_traced),
        ):
            best[mode] = min(best.get(mode, math.inf), seconds)
        traced_ratios.append(t_traced / t_warm)

    if counters(reference) != counters(fast):
        raise AssertionError(
            f"{app} n={n}: fast path diverged from the reference interpreter"
        )
    if counters(reference) != counters(traced):
        raise AssertionError(
            f"{app} n={n}: enabling telemetry changed the simulated counters"
        )

    ops = reference.kernel.total_ops
    point = {
        "app": app,
        "n": n,
        "scale": scale,
        "ops": ops,
        "fast_path_ratio": round(fast.kernel.fast_path_ratio, 4),
    }
    for mode, seconds in best.items():
        point[f"{mode}_ops_per_sec"] = round(ops / seconds, 1)
    point["speedup_cold"] = round(best["reference"] / best["fast_cold"], 3)
    point["speedup_warm"] = round(best["reference"] / best["fast_warm"], 3)
    point["telemetry_overhead"] = round(statistics.median(traced_ratios) - 1.0, 4)
    return point


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# --mode layout: data-structure micro-benchmarks.
# ---------------------------------------------------------------------------

LAYOUT_SCHEMA = "bench-sim-layout-v1"


def _time_loop(fn, iterations: int, repeats: int) -> float:
    """Best-of-``repeats`` nanoseconds per call of ``fn(iterations)``."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn(iterations)
        best = min(best, time.perf_counter() - start)
    return 1e9 * best / iterations


def run_layout_benchmark(args) -> dict:
    """Isolate the flat-array cache and bitmask-coherence op costs.

    Four micro-kernels, each reported as best-of-``--repeats`` ns/op:

    - ``lookup_hit``     — resident-line lookups (move-to-front path);
    - ``lookup_miss``    — non-resident lookups (full-set scan, no fill);
    - ``insert_evict``   — inserts into full sets (victim + shift-down);
    - ``sharer_cycle``   — coherence reads cycling a line through all
      cores (bitmask add/iterate) then a write (mask invalidation).
    """
    from repro.sim.bus import BusConfig, SharedBus
    from repro.sim.cache import Cache, CacheConfig
    from repro.sim.clock import ClockDomain
    from repro.sim.coherence import MESIController
    from repro.sim.memory import MainMemory

    config = CacheConfig(capacity_bytes=32 * 1024, line_bytes=32, associativity=4)
    n_lines = config.n_sets * config.associativity

    # Cache methods take *line* addresses; consecutive integers stripe
    # the sets evenly (set = line % n_sets).
    def bench_lookup_hit(iterations: int) -> None:
        cache = Cache(config)
        for line in range(n_lines):
            cache.insert(line, state=1)
        lookup = cache.lookup
        for i in range(iterations):
            lookup(i % n_lines)

    def bench_lookup_miss(iterations: int) -> None:
        cache = Cache(config)
        for line in range(n_lines):
            cache.insert(line, state=1)
        lookup = cache.lookup
        for i in range(iterations):
            lookup(n_lines + i % n_lines)

    def bench_insert_evict(iterations: int) -> None:
        cache = Cache(config)
        insert = cache.insert
        for line in range(iterations):
            insert(line, state=1)

    def bench_sharer_cycle(iterations: int) -> None:
        n_cores = 8
        clock = ClockDomain(3.2e9)
        ctrl = MESIController(
            l1_caches=[Cache(config) for _ in range(n_cores)],
            l2=Cache(
                CacheConfig(
                    capacity_bytes=4 * 1024 * 1024,
                    line_bytes=config.line_bytes,
                    associativity=8,
                )
            ),
            bus=SharedBus(BusConfig(), clock),
            memory=MainMemory(),
            clock=clock,
        )
        now_ps = 0
        for i in range(max(iterations // (n_cores + 1), 1)):
            addr = (i % 64) * config.line_bytes
            for core in range(n_cores):
                now_ps += ctrl.read(core, addr, now_ps)
            now_ps += ctrl.write(0, addr, now_ps)

    kernels = {
        "lookup_hit": (bench_lookup_hit, 200_000),
        "lookup_miss": (bench_lookup_miss, 200_000),
        "insert_evict": (bench_insert_evict, 100_000),
        "sharer_cycle": (bench_sharer_cycle, 90_000),
    }
    results = {}
    for name, (fn, iterations) in kernels.items():
        ns = _time_loop(fn, iterations, args.repeats)
        results[name] = round(ns, 1)
        print(f"{name:13s}: {ns:8.1f} ns/op  ({iterations:,} iterations)")
    return {
        "schema": LAYOUT_SCHEMA,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {"repeats": args.repeats},
        "ns_per_op": results,
    }


def run_benchmark(args) -> dict:
    apps = QUICK_APPS if args.quick else FULL_APPS
    core_counts = QUICK_CORE_COUNTS if args.quick else FULL_CORE_COUNTS
    points = []
    for app in apps:
        for n in core_counts:
            point = bench_point(app, n, args.scale, args.repeats)
            points.append(point)
            print(
                f"{app:6s} n={n:2d}: ref {point['reference_ops_per_sec']:>11,.0f} "
                f"ops/s, warm {point['fast_warm_ops_per_sec']:>11,.0f} ops/s "
                f"({point['speedup_warm']:.2f}x, "
                f"fast-path {100 * point['fast_path_ratio']:.1f}%, "
                f"telemetry {100 * point['telemetry_overhead']:+.1f}%)"
            )
    warm = [p["speedup_warm"] for p in points]
    overhead_ratios = [1.0 + p["telemetry_overhead"] for p in points]
    return {
        "schema": SCHEMA,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {
            "scale": args.scale,
            "repeats": args.repeats,
            "quick": args.quick,
        },
        "points": points,
        "summary": {
            "geomean_speedup_warm": round(geomean(warm), 3),
            "min_speedup_warm": min(warm),
            "max_speedup_warm": max(warm),
            "geomean_telemetry_overhead": round(
                geomean(overhead_ratios) - 1.0, 4
            ),
            "max_telemetry_overhead": max(p["telemetry_overhead"] for p in points),
        },
    }


def check_regression(report: dict, baseline_path: str, tolerance: float) -> int:
    """Exit code 1 if any shared point regressed beyond ``tolerance``."""
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    reference = {
        (p["app"], p["n"], p["scale"]): p for p in baseline.get("points", [])
    }
    failures = []
    compared = 0
    for point in report["points"]:
        key = (point["app"], point["n"], point["scale"])
        old = reference.get(key)
        if old is None:
            continue
        compared += 1
        floor = (1.0 - tolerance) * old["speedup_warm"]
        if point["speedup_warm"] < floor:
            failures.append(
                f"{point['app']} n={point['n']}: speedup_warm "
                f"{point['speedup_warm']:.2f}x < {floor:.2f}x "
                f"(baseline {old['speedup_warm']:.2f}x - {tolerance:.0%})"
            )
    if not compared:
        print(f"[check] no comparable points in {baseline_path}", file=sys.stderr)
        return 1
    if failures:
        for line in failures:
            print(f"[check] REGRESSION: {line}", file=sys.stderr)
        return 1
    print(f"[check] {compared} points within {tolerance:.0%} of baseline")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small point set for CI smoke runs",
    )
    parser.add_argument(
        "--mode",
        choices=("full", "layout"),
        default="full",
        help=(
            "'full' benchmarks whole simulations; 'layout' micro-benchmarks "
            "the flat-array cache and bitmask coherence ops (ns/op)"
        ),
    )
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help=(
            "timing repeats per mode (default: 3, or "
            f"{QUICK_REPEATS} with --quick, whose short runs need more "
            "pairs for a stable median overhead)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the JSON report to PATH",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="fail if speedup_warm regressed vs a previous report",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional speedup regression for --check (default: 0.30)",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=0.15,
        help=(
            "fail when the geomean tracing slowdown exceeds this fraction "
            "(default: 0.15 — the kernel-v2 fast path roughly halved warm "
            "run time, so the tracer's fixed per-slow-op cost is a "
            "proportionally larger slice; negative disables the gate)"
        ),
    )
    args = parser.parse_args()
    if args.repeats is None:
        args.repeats = QUICK_REPEATS if args.quick else 3

    if args.mode == "layout":
        report = run_layout_benchmark(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.output}")
        if args.check:
            print("[check] --check applies to --mode full only", file=sys.stderr)
            return 2
        return 0

    report = run_benchmark(args)
    summary = report["summary"]
    print(
        f"speedup_warm: geomean {summary['geomean_speedup_warm']:.2f}x, "
        f"min {summary['min_speedup_warm']:.2f}x, "
        f"max {summary['max_speedup_warm']:.2f}x"
    )
    overhead = summary["geomean_telemetry_overhead"]
    print(f"telemetry overhead: geomean {100 * overhead:+.1f}%")
    if 0 <= args.max_telemetry_overhead < overhead:
        print(
            f"[check] REGRESSION: telemetry overhead {overhead:.1%} exceeds "
            f"the {args.max_telemetry_overhead:.0%} budget",
            file=sys.stderr,
        )
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.check:
        return check_regression(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
