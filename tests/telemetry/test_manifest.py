"""Tests for run manifests, JSONL logs, and their validation."""

import dataclasses
import json
import os
from dataclasses import dataclass

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.harness.executor import (
    PointOutcome,
    ResultCache,
    RetryPolicy,
    SweepExecutor,
    SweepFailure,
    config_key,
)
from repro.harness.faults import ALWAYS, FaultPlan, FaultSpec
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    TelemetryRun,
    git_sha,
    latest_run_dir,
    list_run_dirs,
    load_events,
    load_manifest,
    load_spans,
    resolve_run_dir,
    validate_run_dir,
)
from repro.telemetry.record import KernelRecord, PointTelemetry
from repro.telemetry.trace import SpanRecord
from tests.harness.test_executor_telemetry import key_configs, recording_row_point


def kernel_record(total_ops=100):
    return KernelRecord(
        mode="fast",
        total_ops=total_ops,
        fast_path_ops=80,
        slow_path_ops=15,
        barrier_ops=5,
        sim_wall_s=0.25,
        compile_s=0.01,
        compile_cache_hit=True,
        subsystem_s=(("memory", 0.1),),
    )


def outcome(
    index=0, cached=False, failed=False, kernels=1, spans=(), value=None,
    lane="inline",
):
    telemetry = PointTelemetry(
        pid=4242,
        start_us=1e12,
        wall_s=0.5,
        kernels=tuple(kernel_record() for _ in range(kernels)),
        spans=tuple(spans),
    )
    failure = SweepFailure(error_type="SimulationError", message="x") if failed else None
    return PointOutcome(
        index=index,
        key=f"k{index}",
        value=None if failed else (index if value is None else value),
        failure=failure,
        cached=cached,
        telemetry=telemetry,
        lane=lane,
    )


def record(run, point_outcome):
    """Log one hand-built outcome the way the executor's fold does."""
    run.record_point(point_outcome.to_event(), point_outcome.telemetry)


def row_or_fail(point):
    """Picklable evaluator: point 2 is deterministically infeasible."""
    if point == 2:
        raise SimulationError("x")
    return recording_row_point(point)


def sweep(tmp_path, points=(0, 1), warm=(1,), fn=recording_row_point, **kwargs):
    """A telemetry run fed by a real executor (not yet finalized).

    The ``warm`` points are cached first, so the traced map replays
    them; ``kwargs`` configure the traced executor.
    """
    cache = ResultCache(tmp_path / "cache")
    SweepExecutor(cache=cache).map(fn, list(warm), key_configs=key_configs(warm))
    run = TelemetryRun(tmp_path / "telemetry", command="fig3")
    executor = SweepExecutor(cache=cache, **kwargs)
    executor.telemetry_run = run
    executor.map(fn, list(points), key_configs=key_configs(points))
    return run, executor


class TestTelemetryRun:
    def test_creation_writes_a_running_manifest(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3", argv=["--scale", "0.1"])
        manifest = load_manifest(run.directory)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["status"] == "running"
        assert manifest["command"] == "fig3"
        assert manifest["argv"] == ["--scale", "0.1"]
        run.finalize()

    def test_round_trip_points_events_and_counters(self, tmp_path):
        run, executor = sweep(tmp_path, points=(0, 1, 2), fn=row_or_fail)
        run.set_context_fingerprint("abc123")
        run.finalize(executor=executor)

        manifest = load_manifest(run.directory)
        assert manifest["status"] == "complete"
        assert manifest["context_fingerprint"] == "abc123"
        assert manifest["points"] == {
            "evaluated": 2,
            "cache_hits": 1,
            "failures": 1,
            "uncacheable": 0,
            "retries": 0,
            "quarantined": 0,
            "cache_quarantined": 0,
        }

        events = load_events(run.directory)
        assert [e["index"] for e in events] == [0, 1, 2]
        assert [e["status"] for e in events] == ["ok", "ok", "error"]
        assert [e["cached"] for e in events] == [False, True, False]
        assert events[2]["error_type"] == "SimulationError"
        assert all(e["pid"] == os.getpid() for e in events)
        assert [e["ops"] for e in events] == [100, 200, 0]

    def test_finalize_records_executor_and_cache_stats(self, tmp_path):
        # A corrupt cache file shows in no outcome; only the cache can
        # count it, and the manifest's points block carries that count
        # next to the executor's tally.
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(cache=cache).map(
            recording_row_point, [0, 1], key_configs=key_configs([0, 1])
        )
        cache.path_for(config_key(key_configs([1])[0])).write_text("{ torn")
        run, executor = sweep(tmp_path, warm=())
        run.finalize(executor=executor)
        manifest = load_manifest(run.directory)
        assert manifest["points"] == dict(
            dataclasses.asdict(executor.stats), cache_quarantined=1
        )
        assert (executor.stats.cache_hits, executor.stats.evaluated) == (1, 1)
        assert "executor" not in manifest and "cache" not in manifest

    def test_kernel_block_is_the_executors_ledger(self, tmp_path):
        points = [0, 1]
        keys = key_configs(points)
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor(jobs=1, cache=cache).map(
            recording_row_point, points[:1], key_configs=keys[:1]
        )
        run = TelemetryRun(tmp_path / "telemetry", command="fig3")
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.telemetry_run = run
        executor.map(recording_row_point, points, key_configs=keys)
        run.finalize(executor=executor)

        kernel = load_manifest(run.directory)["kernel"]
        assert kernel["runs"] == 1
        assert kernel["cached_runs"] == 1
        assert kernel["total_ops"] == 300
        assert kernel == json.loads(
            json.dumps(dataclasses.asdict(executor.kernels))
        )
        assert set(kernel) >= {
            "fast_path_ops",
            "slow_path_ops",
            "barrier_ops",
            "sim_wall_s",
            "compile_s",
            "compile_cache_hits",
            "compile_cache_evictions",
            "subsystem_s",
        }

    def test_finalize_is_idempotent(self, tmp_path):
        run = TelemetryRun(tmp_path)
        first = run.finalize()
        assert run.finalize() == first

    def test_point_spans_land_in_spans_jsonl(self, tmp_path):
        record_span = SpanRecord(name="kernel.window", start_us=10.0, duration_us=5.0)
        run = TelemetryRun(tmp_path)
        record(run, outcome(0, spans=(record_span,)))
        run.finalize()
        (entry,) = load_spans(run.directory)
        assert entry["pid"] == 4242
        assert entry["span"]["name"] == "kernel.window"


class TestRunDirectoryLookup:
    def test_list_latest_and_resolve(self, tmp_path):
        a = TelemetryRun(tmp_path, run_id="20260101T000000Z-1")
        a.finalize()
        b = TelemetryRun(tmp_path, run_id="20260102T000000Z-1")
        b.finalize()
        assert [p.name for p in list_run_dirs(tmp_path)] == [
            "20260101T000000Z-1",
            "20260102T000000Z-1",
        ]
        assert latest_run_dir(tmp_path).name == "20260102T000000Z-1"
        assert resolve_run_dir(tmp_path).name == "20260102T000000Z-1"
        assert (
            resolve_run_dir(tmp_path, "20260101T000000Z-1").name
            == "20260101T000000Z-1"
        )

    def test_missing_directory_and_run_raise(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list_run_dirs(tmp_path / "nope")
        with pytest.raises(ConfigurationError):
            latest_run_dir(tmp_path)  # exists but empty
        run = TelemetryRun(tmp_path)
        run.finalize()
        with pytest.raises(ConfigurationError):
            resolve_run_dir(tmp_path, "not-a-run")


class TestValidation:
    def make_run(self, tmp_path):
        run, executor = sweep(tmp_path)
        run.record_spans(
            [
                SpanRecord(
                    name="power.solve",
                    start_us=1.0,
                    duration_us=9.0,
                    children=(
                        SpanRecord(
                            name="thermal.solve", start_us=2.0, duration_us=3.0
                        ),
                    ),
                )
            ]
        )
        run.finalize(executor=executor)
        return run

    def test_validate_accepts_a_complete_run(self, tmp_path):
        run = self.make_run(tmp_path)
        summary = validate_run_dir(run.directory)
        assert summary["points"] == 2
        assert summary["spans"] == 2  # the hand-written tree, both nodes
        assert summary["manifest"]["status"] == "complete"

    def test_validate_rejects_missing_manifest_key(self, tmp_path):
        run = self.make_run(tmp_path)
        path = run.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["points"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="points"):
            validate_run_dir(run.directory)

    def test_validate_rejects_event_count_mismatch(self, tmp_path):
        run = self.make_run(tmp_path)
        events = run.directory / "events.jsonl"
        lines = events.read_text().splitlines()
        events.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigurationError, match="events.jsonl logs 1"):
            validate_run_dir(run.directory)

    def test_validate_rejects_corrupt_jsonl_line(self, tmp_path):
        run = self.make_run(tmp_path)
        with (run.directory / "events.jsonl").open("a") as handle:
            handle.write("{not json\n")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            validate_run_dir(run.directory)

    def test_validate_rejects_a_point_event_without_a_row(self, tmp_path):
        run = self.make_run(tmp_path)
        path = run.directory / "events.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        del events[0]["row"]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(ConfigurationError, match="'row'"):
            validate_run_dir(run.directory)

    def test_validate_rejects_bad_span_tree(self, tmp_path):
        run = self.make_run(tmp_path)
        with (run.directory / "spans.jsonl").open("a") as handle:
            handle.write(
                json.dumps(
                    {"event": "span", "pid": 1, "span": {"name": "x"}}
                )
                + "\n"
            )
        with pytest.raises(ConfigurationError, match="start_us"):
            validate_run_dir(run.directory)


class TestGitSha:
    def test_reads_the_repo_head(self):
        sha = git_sha()
        assert sha is not None and len(sha) == 40

    def test_returns_none_outside_a_checkout(self, tmp_path):
        assert git_sha(tmp_path) is None


class TestFaultToleranceTelemetry:
    def faulty_sweep(self, tmp_path):
        """Point 0 recovers on its third attempt; point 1 never does."""
        plan = FaultPlan(
            seed=0,
            rate=0.0,
            faults=(
                (0, FaultSpec(kind="raise", failing_attempts=2)),
                (1, FaultSpec(kind="raise", failing_attempts=ALWAYS)),
            ),
        )
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.0, backoff_max_s=0.0)
        return sweep(tmp_path, warm=(), retry=policy, fault_plan=plan)

    def test_retries_and_quarantine_reach_events_and_counters(self, tmp_path):
        run, executor = self.faulty_sweep(tmp_path)
        run.finalize(executor=executor)

        manifest = load_manifest(run.directory)
        assert manifest["points"]["retries"] == 4
        assert manifest["points"]["quarantined"] == 1
        events = load_events(run.directory)
        assert [e["attempts"] for e in events] == [3, 3]
        assert events[1]["error_type"] == "InjectedFault"
        assert events[1]["retryable"] is True
        assert "retryable" not in events[0]

    def test_fault_plan_and_resume_land_in_manifest(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig1")
        run.set_fault_plan("seed=7,rate=0.5,kinds=raise")
        run.set_resume("20260101T000000Z-1", already_complete=41)
        run.finalize()

        manifest = load_manifest(run.directory)
        assert manifest["fault_injection"] == "seed=7,rate=0.5,kinds=raise"
        assert manifest["resume"] == {
            "run_id": "20260101T000000Z-1",
            "already_complete": 41,
        }
        resume_events = [
            e for e in load_events(run.directory) if e["event"] == "resume"
        ]
        assert resume_events == [
            {
                "event": "resume",
                "run_id": "20260101T000000Z-1",
                "already_complete": 41,
            }
        ]

    def test_clean_manifests_mark_no_fault_injection(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig1")
        run.finalize()
        manifest = load_manifest(run.directory)
        assert manifest["fault_injection"] is None
        assert manifest["resume"] is None

    def test_validate_accepts_a_fault_tolerant_run(self, tmp_path):
        run, executor = self.faulty_sweep(tmp_path)
        run.set_resume("earlier-run", already_complete=1)
        run.finalize(executor=executor)
        summary = validate_run_dir(run.directory)
        assert summary["points"] == 2


@dataclass(frozen=True)
class Row:
    """A point row: what a sweep's evaluator returns."""

    app: str
    total_power_w: float
    peak_temperature_c: float = 50.0


class TestTimeline:
    def test_runs_write_no_timeline_file(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        record(run, outcome(0))
        run.finalize()
        assert sorted(p.name for p in run.directory.iterdir()) == [
            "events.jsonl",
            "manifest.json",
            "spans.jsonl",
        ]
        manifest = load_manifest(run.directory)
        assert manifest["rows"] == {"points": 0, "fields": {}}
        assert manifest["alerts"] == []

    def test_point_rows_ride_on_events_and_fold_into_the_manifest(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        record(run, outcome(0, value=Row("FMM", 40.0), lane="farm"))
        record(run, outcome(1, cached=True, value=Row("FMM", 41.0)))
        record(run, outcome(2, value=Row("Radix", 39.0)))
        record(run, outcome(3, failed=True))
        run.finalize()

        events = load_events(run.directory)
        assert events[0]["row"] == {
            "app": "FMM", "total_power_w": 40.0, "peak_temperature_c": 50.0,
        }
        assert events[3]["row"] == {}

        manifest = load_manifest(run.directory)
        assert manifest["coordinator_pid"] == os.getpid()
        assert manifest["rows"]["points"] == 3
        stats = manifest["rows"]["fields"]["total_power_w"]
        assert stats["count"] == 3
        assert stats["min"] == 39.0 and stats["max"] == 41.0
        assert "app" not in manifest["rows"]["fields"]

    def test_events_carry_the_executor_lane(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        record(run, outcome(0, lane="farm"))
        record(run, outcome(1, cached=True, lane="cache"))
        run.finalize()
        events = load_events(run.directory)
        assert [e["lane"] for e in events] == ["farm", "cache"]

    def test_seeded_violations_land_as_manifest_alerts(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        record(run, outcome(0, value=Row("FMM", 30.0, peak_temperature_c=97.0)))
        record(run, outcome(1, value=Row("FMM", 65.0)))
        run.finalize()
        manifest = load_manifest(run.directory)
        assert {a["rule"] for a in manifest["alerts"]} == {
            "thermal-ceiling",
            "power-budget",
        }
        by_rule = {a["rule"]: a for a in manifest["alerts"]}
        assert by_rule["thermal-ceiling"]["value"] == 97.0
        assert by_rule["power-budget"]["threshold"] == 60.0
