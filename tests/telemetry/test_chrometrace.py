"""Tests for the Chrome trace exporter and the plain-text metrics table."""

import json
import os
from dataclasses import dataclass

from repro.harness.executor import PointOutcome, ResultCache, SweepExecutor
from repro.sim.config import KernelStats
from repro.telemetry.chrometrace import (
    _format_indices,
    _process_names,
    chrome_trace_document,
    export_chrome_trace,
    metrics_table,
)
from repro.telemetry.manifest import TelemetryRun
from repro.telemetry.record import PointTelemetry
from repro.telemetry.trace import SpanRecord


def traced_run(tmp_path):
    """A finalized run with spans from two pids and one point event."""
    run = TelemetryRun(tmp_path, command="fig3")
    run.record_spans(
        [
            SpanRecord(
                name="kernel.window",
                start_us=1_000.0,
                duration_us=200.0,
                args=(("mode", "fast"),),
            ),
            SpanRecord(
                name="kernel.window",
                start_us=1_250.0,
                duration_us=300.0,
                args=(("mode", "fast"),),
            ),
        ],
        pid=111,
    )
    run.record_spans(
        [
            SpanRecord(
                name="power.solve",
                start_us=1_600.0,
                duration_us=100.0,
                children=(
                    SpanRecord(
                        name="thermal.solve", start_us=1_620.0, duration_us=40.0
                    ),
                ),
            )
        ],
        pid=222,
    )
    telemetry = PointTelemetry(
        pid=111,
        start_us=990.0,
        wall_s=0.0008,
        kernels=(
            KernelStats(
                mode="fast",
                total_ops=120,
                fast_path_ops=100,
                slow_path_ops=15,
                barrier_ops=5,
                sim_wall_s=0.0005,
                subsystem_s={"memory": 0.25},
            ),
        ),
    )
    run.record_point(
        PointOutcome(index=0, key="k0", value=1, telemetry=telemetry).to_event(),
        telemetry,
    )
    # The manifest's points and kernel blocks are the executor's tally
    # and ledger.
    executor = SweepExecutor()
    executor.stats.evaluated += 1
    for kernel in telemetry.kernels:
        executor.kernels.add_record(kernel)
    run.finalize(executor=executor)
    return run


class TestChromeTraceDocument:
    def test_schema_of_every_event(self, tmp_path):
        run = traced_run(tmp_path)
        document = chrome_trace_document(run.directory)
        events = document["traceEvents"]
        assert events, "expected trace events"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["ts"] >= 0 and event["dur"] >= 0
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["run_id"] == run.run_id
        assert document["otherData"]["command"] == "fig3"

    def test_spans_points_and_metadata_rows(self, tmp_path):
        run = traced_run(tmp_path)
        events = chrome_trace_document(run.directory)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X" and e["cat"] == "span"]
        points = [e for e in events if e["ph"] == "X" and e["cat"] == "point"]
        names = {e["name"] for e in spans}
        assert names == {"kernel.window", "power.solve", "thermal.solve"}
        assert {e["pid"] for e in spans} == {111, 222}
        (point,) = points
        assert point["name"] == "point[0]"
        assert point["tid"] != spans[0]["tid"]  # separate track
        assert point["args"]["ops"] == 120
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in metadata} == {111, 222}
        assert {e["name"] for e in metadata} == {"process_name", "thread_name"}

    def test_timestamps_are_rebased_to_near_zero(self, tmp_path):
        run = traced_run(tmp_path)
        events = chrome_trace_document(run.directory)["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0
        nested = next(e for e in xs if e["name"] == "thermal.solve")
        parent = next(e for e in xs if e["name"] == "power.solve")
        assert parent["ts"] <= nested["ts"]
        assert nested["ts"] + nested["dur"] <= parent["ts"] + parent["dur"]

    def test_export_writes_parseable_json(self, tmp_path):
        run = traced_run(tmp_path)
        output = tmp_path / "trace.json"
        document = export_chrome_trace(run.directory, output)
        parsed = json.loads(output.read_text())
        assert parsed == json.loads(json.dumps(document))
        assert parsed["traceEvents"]


class TestMetricsTable:
    def test_table_aggregates_phases_with_counts(self, tmp_path):
        run = traced_run(tmp_path)
        text = metrics_table(run.directory)
        assert "1 points" in text and "120 simulated ops" in text
        assert "1 runs (+0 cached)" in text
        # Slow-path seconds come from the ledger; no span carries them.
        assert "[kernel] slow-path time: memory 0.25s" in text
        lines = {
            line.split()[0]: line.split()
            for line in text.splitlines()
            if line.strip().startswith(("kernel.", "power.", "thermal."))
        }
        assert lines["kernel.window"][1] == "2"
        assert lines["power.solve"][1] == "1"
        assert lines["thermal.solve"][1] == "1"

    def test_table_mentions_missing_spans(self, tmp_path):
        run = TelemetryRun(tmp_path)
        run.finalize()
        assert "no spans recorded — was tracing enabled?" in metrics_table(run.directory)

    def test_table_says_a_fully_cached_run_replayed_every_point(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        points, keys = [1, 2, 3], [{"x": x} for x in (1, 2, 3)]
        SweepExecutor(cache=cache).map(square, points, key_configs=keys)
        executor = SweepExecutor(cache=cache)
        assert [o.value for o in executor.map(square, points, key_configs=keys)] == [1, 4, 9]
        run = TelemetryRun(tmp_path / "telemetry")
        run.finalize(executor=executor)
        text = metrics_table(run.directory)
        assert "(0 evaluated, 3 cached, 0 failed)" in text
        assert "every point was replayed from the cache" in text
        assert "was tracing enabled?" not in text


def square(x):
    """A picklable point function."""
    return x * x


@dataclass(frozen=True)
class Row:
    """A point row: its string field becomes no counter."""

    app: str
    n: int
    total_power_w: float


def sampled_run(tmp_path):
    """A finalized run: two farm-lane points with rows, one coordinator span."""
    run = TelemetryRun(tmp_path, command="fig3")
    for index, (start_us, power) in enumerate(((990.0, 41.0), (2_000.0, 45.0))):
        telemetry = PointTelemetry(pid=111, start_us=start_us, wall_s=0.0008)
        outcome = PointOutcome(
            index=index,
            key=f"k{index}",
            value=Row("FMM", index + 1, power),
            telemetry=telemetry,
            lane="farm",
        )
        run.record_point(outcome.to_event(), telemetry)
    run.record_spans(
        [SpanRecord(name="context.calibrate", start_us=500.0, duration_us=100.0)]
    )
    run.finalize()
    return run


class TestCounterTracks:
    def test_row_fields_become_counter_events(self, tmp_path):
        run = sampled_run(tmp_path)
        events = chrome_trace_document(run.directory)["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert sorted(e["name"] for e in counters) == [
            "n", "n", "total_power_w", "total_power_w",
        ]
        for event in counters:
            assert event["cat"] == "counter"
            assert "dur" not in event
            assert isinstance(event["args"]["value"], float)
            assert event["pid"] == 111
        power = [e["args"]["value"] for e in counters if e["name"] == "total_power_w"]
        assert power == [41.0, 45.0]

    def test_counter_timestamps_share_the_rebased_timebase(self, tmp_path):
        run = sampled_run(tmp_path)
        events = chrome_trace_document(run.directory)["traceEvents"]
        timed = [e for e in events if e["ph"] in ("X", "C")]
        assert min(e["ts"] for e in timed) == 0.0
        assert all(e["ts"] >= 0 for e in timed)
        points = [e for e in timed if e["cat"] == "point"]
        counters = [e for e in timed if e["name"] == "total_power_w"]
        # Each point's counters sit at that point's end.
        for point, counter in zip(points, counters):
            assert counter["ts"] == round(point["ts"] + point["dur"], 3)
        assert counters[0]["ts"] < counters[1]["ts"]

    def test_export_round_trips_counter_events(self, tmp_path):
        run = sampled_run(tmp_path)
        output = tmp_path / "trace.json"
        export_chrome_trace(run.directory, output)
        parsed = json.loads(output.read_text())
        assert any(e["ph"] == "C" for e in parsed["traceEvents"])


class TestFormatIndices:
    def test_singletons_and_ranges(self):
        assert _format_indices([3]) == "3"
        assert _format_indices([0, 1, 2, 5, 7, 8, 9]) == "0-2,5,7-9"
        assert _format_indices(list(range(40))) == "0-39"

    def test_long_lists_collapse_to_an_ellipsis(self):
        evens = list(range(0, 16, 2))  # eight disjoint ranges
        assert _format_indices(evens, limit=6) == "0,2,4,6,8,10,…"


class TestProcessNames:
    def point_event(self, pid, index, lane):
        return {"event": "point", "pid": pid, "index": index, "lane": lane}

    def test_workers_show_lane_and_point_ranges(self):
        events = [
            self.point_event(111, 0, "farm"),
            self.point_event(111, 1, "farm"),
            self.point_event(222, 2, "farm"),
        ]
        names = _process_names(events, coordinator_pid=999)
        assert names[111] == "repro farm worker 111 · points 0-1"
        assert names[222] == "repro farm worker 222 · points 2"
        assert names[999] == "repro coordinator 999"

    def test_cache_lane_defers_to_the_working_lane(self):
        events = [
            self.point_event(111, 0, "farm"),
            self.point_event(111, 1, "cache"),
        ]
        names = _process_names(events, coordinator_pid=None)
        assert names[111] == "repro farm worker 111 · points 0-1"

    def test_pure_cache_replays_keep_the_cache_label(self):
        events = [self.point_event(111, 0, "cache")]
        names = _process_names(events, coordinator_pid=None)
        assert names[111] == "repro cache worker 111 · points 0"

    def test_document_metadata_uses_the_lane_names(self, tmp_path):
        run = sampled_run(tmp_path)
        events = chrome_trace_document(run.directory)["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[111] == "repro farm worker 111 · points 0-1"
        assert names[os.getpid()] == f"repro coordinator {os.getpid()}"
