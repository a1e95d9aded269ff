"""Tests for run manifests, JSONL logs, and their validation."""

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.harness.executor import (
    PointOutcome,
    ResultCache,
    SweepExecutor,
    SweepFailure,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    TIMELINE_SCHEMA,
    TelemetryRun,
    git_sha,
    latest_run_dir,
    list_run_dirs,
    load_events,
    load_manifest,
    load_spans,
    load_timeline,
    resolve_run_dir,
    validate_run_dir,
)
from repro.telemetry.record import KernelAggregate, KernelRecord, PointTelemetry
from repro.telemetry.timeseries import (
    CounterSampler,
    SampleRecord,
    get_sampler,
    set_sampler,
)
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
    index=0, cached=False, failed=False, kernels=1, spans=(), samples=(),
    lane="inline",
):
    telemetry = PointTelemetry(
        pid=4242,
        start_us=1e12,
        wall_s=0.5,
        kernels=tuple(kernel_record() for _ in range(kernels)),
        spans=tuple(spans),
        samples=tuple(samples),
    )
    failure = SweepFailure(error_type="SimulationError", message="x") if failed else None
    return PointOutcome(
        index=index,
        key=f"k{index}",
        value=None if failed else index,
        failure=failure,
        cached=cached,
        telemetry=telemetry,
        lane=lane,
    )


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
        run = TelemetryRun(tmp_path, command="fig3")
        run.set_context_fingerprint("abc123")
        run.record_point(outcome(0))
        run.record_point(outcome(1, cached=True))
        run.record_point(outcome(2, failed=True))
        run.finalize()

        manifest = load_manifest(run.directory)
        assert manifest["status"] == "complete"
        assert manifest["context_fingerprint"] == "abc123"
        assert manifest["points"] == {
            "total": 3,
            "ok": 2,
            "failed": 1,
            "cached": 1,
            "evaluated": 2,
            "retried": 0,
            "quarantined": 0,
        }

        events = load_events(run.directory)
        assert [e["index"] for e in events] == [0, 1, 2]
        assert [e["status"] for e in events] == ["ok", "ok", "error"]
        assert [e["cached"] for e in events] == [False, True, False]
        assert events[2]["error_type"] == "SimulationError"
        assert all(e["pid"] == 4242 and e["ops"] == 100 for e in events)

    def test_finalize_records_executor_and_cache_stats(self, tmp_path):
        class FakeCacheStats:
            hits, misses, stores, quarantined = 3, 2, 2, 0

        class FakeCache:
            stats = FakeCacheStats()

        class FakeStats:
            evaluated, cache_hits, failures, uncacheable = 2, 3, 0, 1

        class FakeExecutor:
            stats = FakeStats()
            cache = FakeCache()
            kernels = KernelAggregate()

        run = TelemetryRun(tmp_path)
        run.finalize(executor=FakeExecutor())
        manifest = load_manifest(run.directory)
        assert manifest["executor"] == {
            "evaluated": 2,
            "cache_hits": 3,
            "failures": 0,
            "uncacheable": 1,
            "retries": 0,
            "quarantined": 0,
        }
        assert manifest["cache"] == {
            "hits": 3,
            "misses": 2,
            "stores": 2,
            "quarantined": 0,
        }

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
        record = SpanRecord(name="kernel.window", start_us=10.0, duration_us=5.0)
        run = TelemetryRun(tmp_path)
        run.record_point(outcome(0, spans=(record,)))
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
        run = TelemetryRun(tmp_path, command="fig3")
        run.record_point(outcome(0))
        run.record_point(outcome(1, cached=True))
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
        run.finalize()
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
    def retried_outcome(self, index=0, quarantined=False):
        failure = (
            SweepFailure(
                error_type="WorkerCrash", message="died", retryable=True
            )
            if quarantined
            else None
        )
        return PointOutcome(
            index=index,
            key=f"k{index}",
            value=None if quarantined else index,
            failure=failure,
            attempts=3,
            telemetry=PointTelemetry(
                pid=4242, start_us=1e12, wall_s=0.5, kernels=(), spans=()
            ),
        )

    def test_retries_and_quarantine_reach_events_and_counters(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig1")
        run.record_point(self.retried_outcome(0))
        run.record_point(self.retried_outcome(1, quarantined=True))
        run.finalize()

        manifest = load_manifest(run.directory)
        assert manifest["points"]["retried"] == 2
        assert manifest["points"]["quarantined"] == 1
        events = load_events(run.directory)
        assert [e["attempts"] for e in events] == [3, 3]
        assert events[1]["error_type"] == "WorkerCrash"
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
        run = TelemetryRun(tmp_path, command="fig1")
        run.set_resume("earlier-run", already_complete=1)
        run.record_point(self.retried_outcome(0, quarantined=True))
        run.finalize()
        summary = validate_run_dir(run.directory)
        assert summary["points"] == 1


def samples_for(point, channel="power.total_w", values=(40.0,)):
    return tuple(
        SampleRecord(channel=channel, t_us=1e12 + point * 10 + i, value=value)
        for i, value in enumerate(values)
    )


class TestTimeline:
    @pytest.fixture(autouse=True)
    def restore_global_sampler(self):
        previous = get_sampler()
        yield
        set_sampler(previous)

    def test_sampling_off_runs_write_no_timeline_file(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        run.record_point(outcome(0))
        run.finalize()
        assert not (run.directory / "timeline.jsonl").exists()
        assert load_timeline(run.directory) == ([], 0)
        manifest = load_manifest(run.directory)
        assert manifest["timeline"]["written"] == 0
        assert manifest["alerts"] == []

    def test_point_samples_round_trip_with_attribution(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        run.record_point(
            outcome(0, samples=samples_for(0, values=(40.0, 41.0)), lane="farm")
        )
        run.record_point(
            outcome(1, cached=True, samples=samples_for(1, values=(39.0,)))
        )
        run.finalize()

        lines = (run.directory / "timeline.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"schema": TIMELINE_SCHEMA, "run_id": run.run_id}

        entries, torn = load_timeline(run.directory)
        assert torn == 0
        assert [e["point"] for e in entries] == [0, 0, 1]
        assert [e["cached"] for e in entries] == [False, False, True]
        assert all(e["pid"] == 4242 for e in entries)
        assert [e["value"] for e in entries] == [40.0, 41.0, 39.0]

        manifest = load_manifest(run.directory)
        assert manifest["coordinator_pid"] == os.getpid()
        assert manifest["timeline"]["written"] == 3
        stats = manifest["timeline"]["channels"]["power.total_w"]
        assert stats["count"] == 3
        assert stats["min"] == 39.0 and stats["max"] == 41.0

    def test_events_carry_the_executor_lane(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        run.record_point(outcome(0, lane="farm"))
        run.record_point(outcome(1, cached=True, lane="cache"))
        run.finalize()
        events = load_events(run.directory)
        assert [e["lane"] for e in events] == ["farm", "cache"]

    def test_finalize_drains_coordinator_readings_as_pointless(self, tmp_path):
        sampler = CounterSampler(enabled=True, max_samples=8)
        set_sampler(sampler)
        sampler.sample("calibration.probe", 1.5)
        run = TelemetryRun(tmp_path, command="fig3")
        run.finalize()
        (entry,) = load_timeline(run.directory)[0]
        assert entry["point"] is None
        assert entry["channel"] == "calibration.probe"
        assert entry["pid"] == os.getpid()
        assert sampler.count == 0  # drained

    def test_seeded_violations_land_as_manifest_alerts(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        run.record_point(
            outcome(
                0,
                samples=samples_for(
                    0, channel="power.peak_temperature_c", values=(60.0, 97.0)
                ),
            )
        )
        run.record_point(
            outcome(
                1, samples=samples_for(1, channel="power.total_w", values=(65.0,))
            )
        )
        run.finalize()
        manifest = load_manifest(run.directory)
        assert {a["rule"] for a in manifest["alerts"]} == {
            "thermal-ceiling",
            "power-budget",
        }
        by_rule = {a["rule"]: a for a in manifest["alerts"]}
        assert by_rule["thermal-ceiling"]["value"] == 97.0
        assert by_rule["power-budget"]["threshold"] == 60.0

    def test_overflow_alert_reads_the_global_samplers_drop_count(self, tmp_path):
        sampler = CounterSampler(enabled=True, max_samples=1)
        set_sampler(sampler)
        sampler.sample("c", 1.0)
        sampler.sample("c", 2.0)  # dropped
        run = TelemetryRun(tmp_path, command="fig3")
        run.finalize()
        manifest = load_manifest(run.directory)
        assert manifest["timeline"]["dropped"] == 1
        assert "sampler-overflow" in {a["rule"] for a in manifest["alerts"]}


class TestTimelineValidation:
    def make_run(self, tmp_path):
        run = TelemetryRun(tmp_path, command="fig3")
        run.record_point(outcome(0, samples=samples_for(0, values=(40.0, 41.0))))
        run.finalize()
        return run

    def test_validate_counts_samples(self, tmp_path):
        run = self.make_run(tmp_path)
        summary = validate_run_dir(run.directory)
        assert summary["samples"] == 2
        assert summary["torn_samples"] == 0

    def test_torn_tail_is_tolerated_and_counted(self, tmp_path):
        run = self.make_run(tmp_path)
        with (run.directory / "timeline.jsonl").open("a") as handle:
            handle.write('{"event": "sample", "chan')  # crash mid-write
        summary = validate_run_dir(run.directory)
        assert summary["samples"] == 2
        assert summary["torn_samples"] == 1

    def test_declared_timeline_without_file_is_an_error(self, tmp_path):
        run = self.make_run(tmp_path)
        (run.directory / "timeline.jsonl").unlink()
        with pytest.raises(ConfigurationError, match="timeline.jsonl is missing"):
            validate_run_dir(run.directory)

    def test_complete_run_with_count_mismatch_is_an_error(self, tmp_path):
        run = self.make_run(tmp_path)
        path = run.directory / "timeline.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one sample
        with pytest.raises(ConfigurationError, match="timeline.jsonl logs 1"):
            validate_run_dir(run.directory)

    def test_malformed_sample_entry_is_an_error(self, tmp_path):
        run = self.make_run(tmp_path)
        with (run.directory / "timeline.jsonl").open("a") as handle:
            handle.write(json.dumps({"event": "sample", "channel": "c"}) + "\n")
        with pytest.raises(ConfigurationError, match="missing/invalid"):
            validate_run_dir(run.directory)

    def test_foreign_timeline_schema_is_rejected(self, tmp_path):
        run = self.make_run(tmp_path)
        path = run.directory / "timeline.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({"schema": "someone-elses-v9"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="timeline schema"):
            load_timeline(run.directory)

    def test_headerless_timeline_is_rejected(self, tmp_path):
        run = self.make_run(tmp_path)
        path = run.directory / "timeline.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ConfigurationError, match="missing timeline header"):
            load_timeline(run.directory)
