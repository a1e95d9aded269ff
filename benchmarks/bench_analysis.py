"""Wall-clock budgets for the static analyzer.

``repro check`` runs as a required CI job and as a pre-commit habit, so
it must stay interactive-fast.  Two budgets are enforced:

* the whole ``repro check`` run (``analyze_tree``: index, the
  per-statement DET-* rules, and the flow passes below) under
  ``--budget-s`` (default 10 s);
* the interprocedural flow passes alone (call graph, the unit and
  dimension pass with its return-summary fixpoint, determinism taint)
  under ``--flow-budget-s`` (default 20 s).

Run directly::

    PYTHONPATH=src python benchmarks/bench_analysis.py [--budget-s 10]

Exits non-zero when the best of three runs exceeds either budget.
Three runs because the first pays filesystem cache warmup; the check
applies to the *best* run, the others are reported for context.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import (  # noqa: E402
    AnalysisOptions,
    analyze_tree,
    build_index,
    dimensions,
    taint,
)
from repro.analysis.flow import build_call_graph  # noqa: E402

LIVE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _time_runs(runs: int, work: Callable[[], object]) -> Tuple[List[float], object]:
    timings = []
    result = None
    for _ in range(max(1, runs)):
        start = time.perf_counter()
        result = work()
        timings.append(time.perf_counter() - start)
    return timings, result


def _flow_passes() -> int:
    """One full interprocedural cycle; returns the node count."""
    index = build_index(LIVE_ROOT)
    graph = build_call_graph(index)
    summaries = dimensions.solve_return_summaries(index, graph)
    dimensions.check(index, graph, summaries=summaries)
    taint.check(index, graph)
    return len(graph.nodes)


def _report(label: str, timings: List[float], budget: float) -> bool:
    best = min(timings)
    print(
        f"{label} x{len(timings)}: "
        + ", ".join(f"{t:.3f}s" for t in timings)
        + f" (best {best:.3f}s, budget {budget:.1f}s)"
    )
    if best > budget:
        print(f"FAIL: {label} took {best:.3f}s > {budget:.1f}s")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget-s", type=float, default=10.0)
    parser.add_argument("--flow-budget-s", type=float, default=20.0)
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)

    tree_timings, report = _time_runs(
        args.runs, lambda: analyze_tree(AnalysisOptions(root=LIVE_ROOT))
    )
    flow_timings, node_count = _time_runs(args.runs, _flow_passes)

    ok = _report(
        f"repro check over {report.file_count} files", tree_timings, args.budget_s
    )
    ok = (
        _report(
            f"flow passes over {node_count} functions",
            flow_timings,
            args.flow_budget_s,
        )
        and ok
    )
    if not ok:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
