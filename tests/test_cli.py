"""Tests for the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig1_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.tech == "65nm"

    def test_fig3_apps_and_scale(self):
        args = build_parser().parse_args(["fig3", "--apps", "FMM", "--scale", "0.1"])
        assert args.apps == ["FMM"]
        assert args.scale == 0.1

    def test_rejects_unknown_tech(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--tech", "7nm"])

    def test_executor_flags_on_sweep_commands(self):
        for command in ("fig1", "fig2", "fig3", "fig4", "characterize"):
            args = build_parser().parse_args(
                [command, "--jobs", "4", "--cache", "/tmp/c"]
            )
            assert args.jobs == 4
            assert args.cache == "/tmp/c"

    def test_rejects_non_positive_or_non_integer_jobs(self):
        for bad in ("0", "-2", "xyz"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fig2", "--jobs", bad])

    def test_profile_flag_on_every_sweep(self):
        for command in ("fig1", "fig2", "fig3", "fig4", "characterize"):
            assert build_parser().parse_args([command, "--profile"]).profile
            assert not build_parser().parse_args([command]).profile

    def test_telemetry_dir_flag_on_every_sweep(self):
        for command in ("fig1", "fig2", "fig3", "fig4", "characterize"):
            args = build_parser().parse_args([command, "--telemetry-dir", "t"])
            assert args.telemetry_dir == "t"
            assert build_parser().parse_args([command]).telemetry_dir is None

    def test_trace_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "export", "--telemetry-dir", "t", "--output", "o.json"]
        )
        assert (args.trace_command, args.output, args.run) == (
            "export",
            "o.json",
            None,
        )
        args = build_parser().parse_args(
            ["trace", "validate", "--telemetry-dir", "t", "--run", "r1"]
        )
        assert (args.trace_command, args.run) == ("validate", "r1")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "export"])  # DIR required

    def test_trace_timeline_flags(self):
        args = build_parser().parse_args(
            [
                "trace", "timeline", "--telemetry-dir", "t",
                "--channel", "average_cpi", "--channel", "total_power_w",
                "--width", "20",
            ]
        )
        assert args.trace_command == "timeline"
        assert args.channel == ["average_cpi", "total_power_w"]
        assert args.width == 20
        defaults = build_parser().parse_args(
            ["trace", "timeline", "--telemetry-dir", "t"]
        )
        assert defaults.channel is None and defaults.width == 60


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "244.4 mm^2" in out
        assert "Water-Sp" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--tech", "130nm"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 (130nm)" in out
        assert "P_N / P_1" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "peak:" in out
        assert "frequency-only" in out

    def test_fig3_tiny(self, capsys):
        assert main(["fig3", "--apps", "Barnes", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Barnes" in out
        assert "norm-P" in out
        assert "[kernel]" not in out  # only printed under --profile

    def test_fig3_profile_prints_kernel_summary(self, capsys):
        assert main(
            ["fig3", "--apps", "Barnes", "--scale", "0.05", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "[kernel]" in out
        assert "ops/s" in out
        assert "fast-path" in out
        # --profile alone enables the tracer, which times the slow path.
        assert "[kernel] slow-path time: " in out

    def test_profile_restores_the_tracer_it_replaced(self, capsys):
        from repro.telemetry.trace import get_tracer

        before = get_tracer()
        enabled = before.enabled
        assert main(
            ["fig3", "--apps", "Barnes", "--scale", "0.05", "--profile"]
        ) == 0
        capsys.readouterr()
        # The command's spans end with it: none is left undrained on a
        # tracer that stays enabled after the command.
        assert get_tracer() is before
        assert get_tracer().roots == []
        assert get_tracer().enabled == enabled

    def test_fig4_tiny(self, capsys):
        assert main(["fig4", "--apps", "Radix", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Radix" in out
        assert "nominal" in out

    def test_report_analytical(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        assert main(["report", "--analytical-only", "--output", str(output)]) == 0
        document = output.read_text()
        assert "## Figure 1" in document
        assert "## Figure 2" in document
        assert "wrote" in capsys.readouterr().out

    def test_fig2_with_cache_runs_warm_second_time(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["fig2", "--cache", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert "[executor] 32 evaluated, 0 cache hits" in cold

        assert main(["fig2", "--cache", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert "[executor] 0 evaluated, 32 cache hits" in warm
        # The cache changes how rows are obtained, never what they are.
        assert warm == cold.replace(
            "[executor] 32 evaluated, 0 cache hits",
            "[executor] 0 evaluated, 32 cache hits",
        )

    def test_characterize_structure(self):
        # Only parse-check: the full characterisation is exercised by
        # the example; here just confirm the argument wiring.
        args = build_parser().parse_args(["characterize", "--scale", "0.2"])
        assert args.scale == 0.2

    def test_verify_arguments(self):
        args = build_parser().parse_args(["verify", "--analytical-only"])
        assert args.analytical_only
        args = build_parser().parse_args(["verify", "--scale", "0.3"])
        assert args.scale == 0.3


class TestTraceTimelineCommand:
    def test_timeline_renders_sparklines_and_alerts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "fig3", "--apps", "Barnes", "--scale", "0.05",
                    "--telemetry-dir", str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert main(["trace", "timeline", "--telemetry-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "average_cpi" in out and "total_power_w" in out
        assert "n=9" in out  # one value per sweep point
        assert "alerts: none fired" in out

        # --channel filters to the named row fields.
        assert (
            main(
                [
                    "trace", "timeline", "--telemetry-dir", str(tmp_path),
                    "--channel", "average_cpi",
                ]
            )
            == 0
        )
        filtered = capsys.readouterr().out
        assert "average_cpi" in filtered and "total_power_w" not in filtered

        # Unknown fields fail with the recorded list in the message.
        assert (
            main(
                [
                    "trace", "timeline", "--telemetry-dir", str(tmp_path),
                    "--channel", "no.such.channel",
                ]
            )
            == 1
        )
        assert "no row field(s) no.such.channel" in capsys.readouterr().err

        # No timeline artifact; export carries the counter tracks.
        assert not list(tmp_path.glob("*/timeline.jsonl"))
        assert main(["trace", "validate", "--telemetry-dir", str(tmp_path)]) == 0
        assert "9 point events" in capsys.readouterr().out
        output = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "export", "--telemetry-dir", str(tmp_path),
                    "--output", str(output),
                ]
            )
            == 0
        )
        capsys.readouterr()
        import json

        events = json.loads(output.read_text())["traceEvents"]
        assert any(e["ph"] == "C" for e in events)

    def test_barnes_fig3_records_no_alerts(self, capsys, tmp_path):
        # Barnes's CPI spans 1.24-2.06 over the sweep: no point is past
        # half its peak IPC, under the 60 W budget or near the ceiling.
        from repro.telemetry.manifest import latest_run_dir, load_manifest

        argv = ["fig3", "--apps", "Barnes", "--scale", "0.05"]
        assert main([*argv, "--telemetry-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert load_manifest(latest_run_dir(tmp_path))["alerts"] == []

    def test_timeline_without_sampling_says_so(self, capsys, tmp_path):
        from repro.telemetry.manifest import TelemetryRun

        TelemetryRun(tmp_path, command="fig3").finalize()
        assert main(["trace", "timeline", "--telemetry-dir", str(tmp_path)]) == 0
        assert "no point rows" in capsys.readouterr().out


KERNEL_LINE = re.compile(
    r"\[kernel\] (\d+) runs(?: \(\+(\d+) cached\))?, ([\d,]+) ops at .*"
    r"compile (\d+\.\d+)s"
)
LEDGER_COUNTERS = (
    "runs",
    "cached_runs",
    "total_ops",
    "fast_path_ops",
    "slow_path_ops",
    "barrier_ops",
)


def _barnes_fig3(telemetry_dir, *extra):
    """Run ``fig3`` on Barnes under --profile; returns the run's manifest."""
    from repro.telemetry.manifest import latest_run_dir, load_manifest

    argv = ["fig3", "--apps", "Barnes", "--scale", "0.05", "--profile"]
    assert main([*argv, "--telemetry-dir", str(telemetry_dir), *extra]) == 0
    return load_manifest(latest_run_dir(telemetry_dir))


def _span_seconds(run_dir, name):
    from repro.telemetry.manifest import load_spans

    def walk(node):
        own = node["duration_us"] if node["name"] == name else 0.0
        return own + sum(walk(child) for child in node.get("children", ()))

    return sum(walk(entry["span"]) for entry in load_spans(run_dir)) * 1e-6


class TestKernelLedger:
    """``--profile``, the manifest and ``trace metrics`` read one ledger."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_profile_manifest_and_trace_metrics_agree(self, capsys, tmp_path, jobs):
        from repro.sim.ops import stream_cache
        from repro.telemetry.manifest import latest_run_dir
        from repro.telemetry.record import slow_path_line

        # A cold compile cache, so the coordinator's precompile has work.
        stream_cache.clear()
        kernel = _barnes_fig3(tmp_path, "--jobs", jobs)["kernel"]
        out = capsys.readouterr().out
        runs, cached, ops, compile_s = KERNEL_LINE.search(out).groups()
        assert int(runs) == kernel["runs"] > 0
        assert int(cached or 0) == kernel["cached_runs"] == 0
        assert int(ops.replace(",", "")) == kernel["total_ops"] > 0
        assert compile_s == f"{kernel['compile_s']:.2f}"
        assert kernel["compile_s"] > 0

        # The ledger's compile time is the run's compile spans' time,
        # the calibration microbenchmark's included.
        spans_s = _span_seconds(latest_run_dir(tmp_path), "workload.compile")
        assert abs(kernel["compile_s"] - spans_s) <= max(0.1 * spans_s, 0.010)

        # Slow-path seconds live only in the ledger, and trace metrics
        # prints them from there.
        assert kernel["subsystem_s"]
        slow_path = slow_path_line(kernel["subsystem_s"])
        assert slow_path in out
        assert main(["trace", "metrics", "--telemetry-dir", str(tmp_path)]) == 0
        header, second = capsys.readouterr().out.splitlines()[:2]
        assert (
            f"{kernel['runs']} runs (+0 cached), "
            f"{kernel['total_ops']:,} simulated ops"
        ) in header
        assert second == slow_path
        assert main(["trace", "validate", "--telemetry-dir", str(tmp_path)]) == 0

    def test_serial_and_pool_fold_the_same_ops(self, tmp_path):
        serial = _barnes_fig3(tmp_path / "jobs1", "--jobs", "1")["kernel"]
        farm = _barnes_fig3(tmp_path / "jobs2", "--jobs", "2")["kernel"]
        for name in LEDGER_COUNTERS:
            assert farm[name] == serial[name], name

    def test_warm_cache_replays_the_cold_ledger(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _barnes_fig3(tmp_path / "cold", "--cache", cache)["kernel"]
        warm = _barnes_fig3(tmp_path / "warm", "--cache", cache)["kernel"]
        assert (warm["runs"], warm["cached_runs"]) == (0, cold["runs"])
        assert warm["total_ops"] == cold["total_ops"]


def _phase_counts(capsys, telemetry_dir):
    """The (phase, count) columns of ``trace metrics`` for the newest run."""
    capsys.readouterr()
    assert main(["trace", "metrics", "--telemetry-dir", str(telemetry_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.lstrip().startswith("-"))
    return [tuple(line.split()[:2]) for line in lines[rule + 1:] if line.strip()]


class TestFarmTraces:
    """A traced sweep writes the same spans at ``--jobs 1`` and ``--jobs 2``."""

    @pytest.mark.parametrize(
        "argv",
        [["fig3", "--apps", "Barnes"], ["fig4", "--apps", "Radix"]],
        ids=["fig3", "fig4"],
    )
    def test_phase_counts_match_across_jobs(self, capsys, tmp_path, argv):
        from repro.sim.ops import stream_cache

        counts = {}
        for jobs in ("1", "2"):
            # Each run compiles cold, as its own CLI invocation would.
            stream_cache.clear()
            directory = tmp_path / f"jobs{jobs}"
            argv_jobs = [*argv, "--scale", "0.05", "--jobs", jobs]
            assert main([*argv_jobs, "--telemetry-dir", str(directory)]) == 0
            counts[jobs] = _phase_counts(capsys, directory)
        assert counts["1"] and counts["2"] == counts["1"]


def _only(directory, pattern):
    (path,) = sorted(directory.glob(pattern))
    return path


class TestPointRecord:
    """One record per point: the journal line is the telemetry event,
    and the manifest's points block is the executor's tally."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_journal_after_its_header_is_events_jsonl(self, capsys, tmp_path, jobs):
        cache, telemetry = tmp_path / "cache", tmp_path / "telemetry"
        argv = ["fig2", "--cache", str(cache), "--telemetry-dir", str(telemetry)]
        assert main([*argv, "--jobs", jobs]) == 0
        capsys.readouterr()
        journal = _only(cache / "journal", "*.jsonl").read_bytes()
        events = _only(telemetry, "*/events.jsonl").read_bytes()
        header, _, body = journal.partition(b"\n")
        assert b'"schema": "repro-journal-v2"' in header
        assert body == events and events.count(b"\n") == 32
        lane = b'"lane": "farm"' if jobs == "2" else b'"lane": "inline"'
        assert events.count(lane) == 32

    def test_points_block_is_the_executor_tally(self, capsys, monkeypatch, tmp_path):
        import dataclasses

        from repro.telemetry.manifest import TelemetryRun, load_manifest

        executors = []
        finalize = TelemetryRun.finalize

        def spy(self, executor=None, **kwargs):
            executors.append(executor)
            return finalize(self, executor=executor, **kwargs)

        monkeypatch.setattr(TelemetryRun, "finalize", spy)
        runs = (
            ("cold", "a", "1", (32, 0)),
            ("farm", "b", "2", (32, 0)),
            ("warm", "a", "1", (0, 32)),
        )
        for label, cache, jobs, (evaluated, hits) in runs:
            telemetry = tmp_path / label
            argv = ["fig2", "--cache", str(tmp_path / cache), "--jobs", jobs]
            assert main([*argv, "--telemetry-dir", str(telemetry)]) == 0
            stats = executors[-1].stats
            points = load_manifest(_only(telemetry, "*"))["points"]
            assert points == dict(dataclasses.asdict(stats), cache_quarantined=0), label
            assert (points["evaluated"], points["cache_hits"]) == (evaluated, hits)
        capsys.readouterr()

    def test_resume_refuses_a_v1_journal_naming_its_schema(self, capsys, tmp_path):
        journal = tmp_path / "cache" / "journal" / "old-run.jsonl"
        journal.parent.mkdir(parents=True)
        journal.write_text(
            '{"command": "fig2", "run_id": "old-run", "schema": "repro-journal-v1"}\n'
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["fig2", "--cache", str(tmp_path / "cache"), "--resume", "old-run"])
        assert exit_info.value.code == 2
        assert "'repro-journal-v1'" in capsys.readouterr().err

    def test_corrupt_cache_file_is_counted_as_cache_quarantined(self, capsys, tmp_path):
        from repro.telemetry.manifest import load_manifest

        cache, telemetry = tmp_path / "cache", tmp_path / "telemetry"
        assert main(["fig2", "--cache", str(cache)]) == 0
        sorted(cache.glob("*.json"))[0].write_text("{ torn")
        argv = ["fig2", "--cache", str(cache), "--profile"]
        assert main([*argv, "--telemetry-dir", str(telemetry)]) == 0
        out = capsys.readouterr().out
        points = load_manifest(_only(telemetry, "*"))["points"]
        assert points["cache_quarantined"] == 1
        assert (points["evaluated"], points["cache_hits"]) == (1, 31)
        assert (
            "[executor] 1 evaluated, 31 cache hits, 0 failures, "
            "1 corrupt cache files quarantined"
        ) in out
        assert "[cache]" not in out


def _table(out):
    """A sweep's stdout without the lines a cache hit legitimately changes."""
    return "".join(
        line
        for line in out.splitlines(keepends=True)
        if not line.startswith(("[executor]", "[telemetry]"))
    )


@pytest.fixture
def kernel_runs(monkeypatch):
    """Count every ``ChipMultiprocessor.run`` in this process."""
    from repro.sim.cmp import ChipMultiprocessor

    runs = []
    run = ChipMultiprocessor.run

    def counting(self, *args, **kwargs):
        runs.append(self.config)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(ChipMultiprocessor, "run", counting)
    return runs


SMALL_SWEEPS = {
    "fig3": ["fig3", "--apps", "Barnes", "--scale", "0.05"],
    "fig4": ["fig4", "--apps", "Radix", "--scale", "0.05"],
    "characterize": ["characterize", "--scale", "0.02"],
}


class TestCalibrationMemo:
    """A warm ``--cache`` replays the calibration with the points."""

    @pytest.mark.parametrize("command", sorted(SMALL_SWEEPS))
    def test_warm_cache_runs_no_simulation(self, capsys, kernel_runs, tmp_path, command):
        argv = [*SMALL_SWEEPS[command], "--cache", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert kernel_runs, "the cold run simulates"
        kernel_runs.clear()
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert kernel_runs == []
        assert " 0 evaluated" in warm
        assert _table(warm) == _table(cold)

    def test_warm_farm_prints_the_same_table(self, capsys, kernel_runs, tmp_path):
        argv = [*SMALL_SWEEPS["fig3"], "--cache", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        kernel_runs.clear()
        assert main([*argv, "--jobs", "2"]) == 0
        assert _table(capsys.readouterr().out) == _table(cold)
        assert kernel_runs == []

    def test_a_changed_model_misses_points_and_calibration(self, capsys, kernel_runs, monkeypatch, tmp_path):
        import repro.harness.context as context_module
        import repro.harness.executor as executor_module

        argv = [*SMALL_SWEEPS["fig3"], "--cache", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cold_runs = len(kernel_runs)
        kernel_runs.clear()
        calibrations = []
        calibrate = context_module.calibrate_power_model

        def counting(*args, **kwargs):
            calibrations.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(context_module, "calibrate_power_model", counting)
        monkeypatch.setattr(executor_module, "model_fingerprint", lambda: "edited")
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert len(calibrations) == 1
        assert " 0 cache hits" in warm
        assert len(kernel_runs) == cold_runs
        assert _table(warm) == _table(cold)

    def test_corrupt_calibration_counts_in_points_cache_quarantined(self, capsys, kernel_runs, tmp_path):
        from repro.telemetry.manifest import load_manifest

        cache, telemetry = tmp_path / "cache", tmp_path / "telemetry"
        assert main([*SMALL_SWEEPS["fig3"], "--cache", str(cache)]) == 0
        cold = capsys.readouterr().out
        (entry,) = [
            path
            for path in cache.glob("*.json")
            if "PowerCalibration" in path.read_text(encoding="utf-8")
        ]
        entry.write_text("{ torn", encoding="utf-8")
        kernel_runs.clear()
        argv = [*SMALL_SWEEPS["fig3"], "--cache", str(cache)]
        assert main([*argv, "--telemetry-dir", str(telemetry)]) == 0
        warm = capsys.readouterr().out
        points = load_manifest(_only(telemetry, "*"))["points"]
        assert points["cache_quarantined"] == 1
        assert (points["evaluated"], points["cache_hits"]) == (0, 9)
        assert len(kernel_runs) == 1  # the calibration alone
        assert entry.exists() and entry.with_name(entry.name + ".quarantined").exists()
        assert _table(warm) == _table(cold)


class TestClosedStdout:
    """``repro ... | head`` ends quietly when the reader goes away."""

    @pytest.mark.parametrize(
        "argv", (["check", "--list-rules"], ["info"]), ids=("check", "info")
    )
    def test_closed_reader_ends_without_traceback(self, argv, tmp_path):
        # The read end is closed before the child starts, so its first
        # write to stdout meets a broken pipe whatever the timing.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(repro.__file__).resolve().parent.parent)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                cwd=tmp_path,
                env=dict(os.environ, PYTHONPATH=src),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "BrokenPipeError" not in done.stderr
