"""Exporters: Chrome ``trace_event`` JSON and plain-text metrics tables.

The Chrome trace format (the JSON Array/Object format consumed by
``chrome://tracing`` and https://ui.perfetto.dev) renders one row per
``(pid, tid)`` with nested "X" (complete) events.  We emit

* one "X" event per recorded span (nesting reconstructed from the span
  tree's timestamps),
* one "X" event per sweep point (from ``events.jsonl``), on a dedicated
  ``points`` track per evaluating process, so the executor's fan-out and
  cache behaviour is visible at a glance,
* one "C" (counter) event per numeric field of each point's row, at the
  point's end, which Perfetto renders as one counter track per field —
  the sweep's power, temperature and CPI trajectories — aligned with the
  span rows,
* "M" (metadata) events naming each process row with its executor lane
  and the point indices it evaluated (the coordinator is named as such),
  so a farm worker reads ``repro farm worker 1234 · points 3-5`` instead
  of a bare pid.

Timestamps are absolute wall-clock microseconds shared across worker
processes (see :mod:`repro.telemetry.trace`); the exporter rebases them
to the run's earliest event so traces start near zero.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry.alerts import numeric_fields
from repro.telemetry.manifest import load_events, load_manifest, load_spans
from repro.units import KILO, MEGA

PathLike = Union[str, Path]

#: Virtual thread ids: spans on row 0, sweep points on row 1.
_SPAN_TID = 0
_POINT_TID = 1


def _span_events(
    node: Dict[str, Any], pid: int, out: List[Dict[str, Any]]
) -> None:
    event: Dict[str, Any] = {
        "name": node["name"],
        "cat": "span",
        "ph": "X",
        "pid": pid,
        "tid": _SPAN_TID,
        "ts": node["start_us"],
        "dur": node["duration_us"],
    }
    args = node.get("args")
    if args:
        event["args"] = args
    out.append(event)
    for child in node.get("children", ()):
        _span_events(child, pid, out)


def _format_indices(indices: List[int], limit: int = 6) -> str:
    """Compact a sorted index list into ranges: ``0-2,5,7-9``.

    At most ``limit`` ranges are spelled out (the coordinator's inline
    lane may evaluate hundreds of points); the rest collapse to an
    ellipsis so the Perfetto row label stays readable.
    """
    ranges: List[str] = []
    start = previous = indices[0]
    for index in indices[1:]:
        if index == previous + 1:
            previous = index
            continue
        ranges.append(str(start) if start == previous else f"{start}-{previous}")
        start = previous = index
    ranges.append(str(start) if start == previous else f"{start}-{previous}")
    if len(ranges) > limit:
        ranges = ranges[:limit] + ["…"]
    return ",".join(ranges)


def _process_names(
    events: List[Dict[str, Any]], coordinator_pid: Optional[int]
) -> Dict[int, str]:
    """One display name per evaluating pid, from the point events."""
    lanes: Dict[int, set] = defaultdict(set)
    indices: Dict[int, List[int]] = defaultdict(list)
    for event in events:
        if event.get("event") != "point":
            continue
        pid = int(event.get("pid", 0))
        lanes[pid].add(str(event.get("lane", "inline")))
        if isinstance(event.get("index"), int):
            indices[pid].append(event["index"])
    names: Dict[int, str] = {}
    for pid, pid_lanes in lanes.items():
        # "cache" replays carry the original evaluation's pid; the lane
        # that did the work (if recorded alongside) is the better label.
        worked = sorted(pid_lanes - {"cache"}) or sorted(pid_lanes)
        label = "+".join(worked)
        if pid == coordinator_pid:
            name = f"repro coordinator {pid}"
        else:
            name = f"repro {label} worker {pid}"
        points = sorted(set(indices[pid]))
        if points:
            name += f" · points {_format_indices(points)}"
        names[pid] = name
    if coordinator_pid is not None and coordinator_pid not in names:
        names[coordinator_pid] = f"repro coordinator {coordinator_pid}"
    return names


def chrome_trace_document(run_dir: PathLike) -> Dict[str, Any]:
    """Build the Chrome trace JSON document for one telemetry run."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    events: List[Dict[str, Any]] = []

    for entry in load_spans(run_dir):
        _span_events(entry["span"], int(entry.get("pid", 0)), events)

    point_events = load_events(run_dir)
    for event in point_events:
        if event.get("event") != "point" or not event.get("wall_s"):
            continue
        pid = int(event.get("pid", 0))
        start_us = float(event.get("start_us", 0.0))
        dur_us = float(event["wall_s"]) * MEGA
        for name, value in numeric_fields(event.get("row", {})):
            events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "pid": pid,
                    "ts": start_us + dur_us,
                    "args": {"value": value},
                }
            )
        events.append(
            {
                "name": f"point[{event.get('index')}]",
                "cat": "point",
                "ph": "X",
                "pid": pid,
                "tid": _POINT_TID,
                "ts": start_us,
                "dur": dur_us,
                "args": {
                    "status": event.get("status"),
                    "cached": event.get("cached"),
                    "lane": event.get("lane"),
                    "ops": event.get("ops"),
                    "key": event.get("key"),
                },
            }
        )

    # Rebase to the earliest timestamp so the trace starts near zero
    # ("C" counter events have no duration to round).
    if events:
        origin = min((e["ts"] for e in events if e["ts"] > 0), default=0.0)
        for event in events:
            event["ts"] = round(max(0.0, event["ts"] - origin), 3)
            if "dur" in event:
                event["dur"] = round(event["dur"], 3)

    coordinator_pid = manifest.get("coordinator_pid")
    if not isinstance(coordinator_pid, int):
        coordinator_pid = None
    names = _process_names(point_events, coordinator_pid)
    pids = sorted({e["pid"] for e in events})
    metadata: List[Dict[str, Any]] = []
    for pid in pids:
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": _SPAN_TID,
                "args": {"name": names.get(pid, f"repro pid {pid}")},
            }
        )
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _SPAN_TID,
                "args": {"name": "spans"},
            }
        )
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": _POINT_TID,
                "args": {"name": "points"},
            }
        )

    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run_id": manifest.get("run_id"),
            "command": manifest.get("command"),
            "git_sha": manifest.get("git_sha"),
            "schema": manifest.get("schema"),
        },
    }


def export_chrome_trace(run_dir: PathLike, output: PathLike) -> Dict[str, Any]:
    """Write one run's Chrome trace JSON to ``output``; returns the document."""
    document = chrome_trace_document(run_dir)
    Path(output).write_text(
        json.dumps(document, sort_keys=True), encoding="utf-8"
    )
    return document


# ---------------------------------------------------------------------------
# Plain-text metrics.
# ---------------------------------------------------------------------------


def _collect_phase_rows(run_dir: PathLike) -> List[List[Any]]:
    totals: Dict[str, Tuple[int, float]] = defaultdict(lambda: (0, 0.0))

    def walk(node: Dict[str, Any]) -> None:
        count = int(node.get("args", {}).get("count", 1))
        count_so_far, us_so_far = totals[node["name"]]
        totals[node["name"]] = (
            count_so_far + count,
            us_so_far + float(node["duration_us"]),
        )
        for child in node.get("children", ()):
            walk(child)

    for entry in load_spans(run_dir):
        walk(entry["span"])
    rows = []
    for name in sorted(totals):
        count, total_us = totals[name]
        rows.append(
            [
                name,
                count,
                round(total_us / MEGA, 4),
                round(total_us / count / KILO, 4) if count else 0.0,
            ]
        )
    return rows


def metrics_table(run_dir: PathLike) -> str:
    """One plain-text table per phase: span counts and wall time.

    Aggregates every recorded span by name (aggregated spans contribute
    their event counts), plus a summary header from the manifest.
    """
    from repro.harness.tables import render_table

    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    points = manifest.get("points", {})
    kernel = manifest.get("kernel", {})
    evaluated, cached = points.get("evaluated", 0), points.get("cache_hits", 0)
    header = (
        f"run {manifest.get('run_id')} ({manifest.get('command')}): "
        f"{evaluated + cached} points "
        f"({evaluated} evaluated, "
        f"{cached} cached, {points.get('failures', 0)} failed), "
        f"{kernel.get('runs', 0)} runs (+{kernel.get('cached_runs', 0)} cached), "
        f"{kernel.get('total_ops', 0):,} simulated ops"
    )
    rows = _collect_phase_rows(run_dir)
    if not rows:
        return header + "\n(no spans recorded — was tracing enabled?)"
    table = render_table(
        ["phase", "count", "total (s)", "mean (ms)"],
        rows,
        title="telemetry phases",
    )
    return header + "\n" + table
