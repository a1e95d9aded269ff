"""Tests for the command-line interface."""

import re

import pytest

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
                [command, "--jobs", "4", "--cache", "/tmp/c", "--no-cache"]
            )
            assert args.jobs == 4
            assert args.cache == "/tmp/c"
            assert args.no_cache is True

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
                "--channel", "sim.ipc", "--channel", "power.total_w",
                "--width", "20",
            ]
        )
        assert args.trace_command == "timeline"
        assert args.channel == ["sim.ipc", "power.total_w"]
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

    def test_no_cache_disables_a_configured_cache(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["fig2", "--cache", str(cache), "--no-cache"]) == 0
        capsys.readouterr()
        assert not cache.exists()

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


@pytest.fixture
def restore_telemetry_state():
    """--telemetry-dir enables tracing/sampling; undo it afterwards."""
    from repro.telemetry.timeseries import get_sampler, set_sampler
    from repro.telemetry.trace import get_tracer, set_tracer

    sampler, tracer = get_sampler(), get_tracer()
    yield
    set_sampler(sampler)
    set_tracer(tracer)


@pytest.mark.usefixtures("restore_telemetry_state")
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
        assert "sim.ipc" in out and "power.total_w" in out
        assert "n=" in out
        assert "alerts" in out

        # --channel filters to the named series.
        assert (
            main(
                [
                    "trace", "timeline", "--telemetry-dir", str(tmp_path),
                    "--channel", "sim.ipc",
                ]
            )
            == 0
        )
        filtered = capsys.readouterr().out
        assert "sim.ipc" in filtered and "power.total_w" not in filtered

        # Unknown channels fail with the sampled list in the message.
        assert (
            main(
                [
                    "trace", "timeline", "--telemetry-dir", str(tmp_path),
                    "--channel", "no.such.channel",
                ]
            )
            == 1
        )
        assert "no samples for channel(s)" in capsys.readouterr().err

        # validate counts the timeline; export carries counter tracks.
        assert main(["trace", "validate", "--telemetry-dir", str(tmp_path)]) == 0
        assert "timeline samples" in capsys.readouterr().out
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

    def test_timeline_without_sampling_says_so(self, capsys, tmp_path):
        from repro.telemetry.manifest import TelemetryRun

        TelemetryRun(tmp_path, command="fig3").finalize()
        assert main(["trace", "timeline", "--telemetry-dir", str(tmp_path)]) == 0
        assert "no timeline samples" in capsys.readouterr().out


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


@pytest.mark.usefixtures("restore_telemetry_state")
class TestKernelLedger:
    """``--profile``, the manifest and ``trace metrics`` read one ledger."""

    def test_profile_manifest_and_trace_metrics_agree(self, capsys, tmp_path):
        from repro.sim.ops import stream_cache
        from repro.telemetry.manifest import latest_run_dir

        # A cold compile cache, so the coordinator's precompile has work.
        stream_cache.clear()
        kernel = _barnes_fig3(tmp_path)["kernel"]
        out = capsys.readouterr().out
        runs, cached, ops, compile_s = KERNEL_LINE.search(out).groups()
        assert int(runs) == kernel["runs"] > 0
        assert int(cached or 0) == kernel["cached_runs"] == 0
        assert int(ops.replace(",", "")) == kernel["total_ops"] > 0
        assert compile_s == f"{kernel['compile_s']:.2f}"
        assert kernel["compile_s"] > 0

        # The ledger's compile time is the compile spans' time.
        spans_s = _span_seconds(latest_run_dir(tmp_path), "workload.compile")
        assert abs(kernel["compile_s"] - spans_s) <= max(0.1 * spans_s, 0.010)

        assert main(["trace", "metrics", "--telemetry-dir", str(tmp_path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert (
            f"{kernel['runs']} runs (+0 cached), "
            f"{kernel['total_ops']:,} simulated ops"
        ) in header
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
