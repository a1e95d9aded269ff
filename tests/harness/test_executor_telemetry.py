"""Cross-process telemetry through the executor's outcome channel."""

import dataclasses
import os
import time

import pytest

from repro.harness.context import ExperimentContext
from repro.harness.executor import PointOutcome, ResultCache, SweepExecutor
from repro.harness.profiling import SimPointRow
from repro.sim.config import KernelStats
from repro.telemetry.record import PointTelemetry, drain_since, record_kernel
from repro.telemetry.trace import Tracer, set_tracer, span
from repro.workloads import workload_by_name


def kernel_stats(total_ops):
    """One run's stats, as ``ExperimentContext.run`` would record them."""
    return KernelStats(
        mode="fast",
        total_ops=total_ops,
        fast_path_ops=80,
        slow_path_ops=15,
        barrier_ops=5,
        sim_wall_s=0.01,
        compile_s=0.002,
        compile_cache_hit=True,
        subsystem_s={"memory": 0.004},
    )


def recording_row_point(point):
    """Picklable evaluator that records one run's kernel stats per call."""
    record_kernel(kernel_stats(100 * (point + 1)))
    return SimPointRow(
        app=f"app-{point}",
        n=point,
        frequency_hz=3.2e9,
        voltage=1.1,
        execution_time_ps=1000 * (point + 1),
        total_power_w=float(point),
        core_power_density_w_m2=1.0,
        average_temperature_c=45.0,
        peak_temperature_c=46.0,
        average_cpi=1.0,
        l1_miss_rate=0.01,
        memory_stall_fraction=0.1,
        bus_utilisation=0.2,
    )


def tracing_row_point(point):
    """Picklable evaluator opening one span per call."""
    with span("probe.point", point=point):
        return point * 2


def key_configs(points):
    return [{"kind": "telemetry-test", "point": p} for p in points]


class TestInlineTelemetry:
    def test_every_outcome_carries_point_telemetry(self):
        executor = SweepExecutor(jobs=1)
        outcomes = executor.map(recording_row_point, [0, 1])
        for outcome in outcomes:
            telemetry = outcome.telemetry
            assert isinstance(telemetry, PointTelemetry)
            assert telemetry.pid == os.getpid()
            assert telemetry.wall_s >= 0
            assert telemetry.start_us > 0
            assert len(telemetry.kernels) == 1
            assert isinstance(telemetry.kernels[0], KernelStats)
        assert outcomes[0].telemetry.total_ops == 100
        assert outcomes[1].telemetry.total_ops == 200

    def test_capture_window_closes_after_each_point(self):
        executor = SweepExecutor(jobs=1)
        executor.map(recording_row_point, [0])
        record_kernel(kernel_stats(7))  # outside any window
        outcomes = executor.map(recording_row_point, [1])
        assert len(outcomes[0].telemetry.kernels) == 1
        # Nothing was buffered outside the windows.
        assert drain_since().kernels == ()

    def test_unharnessed_context_runs_buffer_no_kernel_records(self):
        context = ExperimentContext(workload_scale=0.05)
        result, _ = context.run(workload_by_name("Radix"), 2)
        assert result.kernel is not None  # a record was offered
        assert drain_since().kernels == ()

    def test_inline_records_fold_into_the_ledger(self):
        executor = SweepExecutor(jobs=1)
        executor.map(recording_row_point, [0, 1])
        assert (executor.kernels.runs, executor.kernels.cached_runs) == (2, 0)
        assert executor.kernels.total_ops == 300
        # The ledger accumulates across map calls.
        executor.map(recording_row_point, [2])
        assert executor.kernels.runs == 3
        assert executor.kernels.total_ops == 600

    def test_precompile_time_counts_as_compile(self):
        def precompile(points):
            time.sleep(0.02)

        executor = SweepExecutor(jobs=1)
        executor.map(recording_row_point, [0, 1], precompile=precompile)
        # Two in-point records of 2 ms each, plus the precompile wall time.
        assert executor.kernels.compile_s >= 0.004 + 0.02


class TestWorkerTelemetry:
    def test_worker_records_travel_back_and_fold_as_runs(self):
        executor = SweepExecutor(jobs=2)
        outcomes = executor.map(recording_row_point, [0, 1, 2, 3])
        pids = {o.telemetry.pid for o in outcomes}
        assert os.getpid() not in pids
        assert sum(o.telemetry.total_ops for o in outcomes) == 1000
        ledger = executor.kernels
        assert ledger.runs == 4
        assert ledger.cached_runs == 0
        assert ledger.total_ops == 1000
        assert ledger.subsystem_s == pytest.approx({"memory": 0.016})


class TestCachedTelemetry:
    def test_cache_replays_telemetry_without_spans(self, tmp_path):
        points = [0, 1]
        cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        cold_outcomes = cold.map(
            recording_row_point, points, key_configs=key_configs(points)
        )

        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        warm_outcomes = warm.map(
            recording_row_point, points, key_configs=key_configs(points)
        )
        assert warm.stats.evaluated == 0
        for cold_outcome, warm_outcome in zip(cold_outcomes, warm_outcomes):
            assert warm_outcome.cached
            assert warm_outcome.telemetry is not None
            assert warm_outcome.telemetry.spans == ()
            assert (
                warm_outcome.telemetry.kernels == cold_outcome.telemetry.kernels
            )

    def test_cached_points_fold_as_cached_runs(self, tmp_path):
        points = [0, 1]
        cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        cold.map(recording_row_point, points, key_configs=key_configs(points))

        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        warm.map(recording_row_point, points, key_configs=key_configs(points))
        assert warm.kernels.runs == 0
        assert warm.kernels.cached_runs == 2
        assert warm.kernels.total_ops == 300
        assert "(+2 cached)" in warm.kernels.summary()

    def test_warm_cache_op_totals_match_the_cold_run(self, tmp_path):
        points = [0, 1, 2]
        cold = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        cold.map(recording_row_point, points, key_configs=key_configs(points))

        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        warm.map(recording_row_point, points, key_configs=key_configs(points))

        assert warm.kernels.total_ops == cold.kernels.total_ops == 600
        assert (cold.kernels.runs, cold.kernels.cached_runs) == (3, 0)
        assert (warm.kernels.runs, warm.kernels.cached_runs) == (0, 3)


class TestStatsSummaries:
    def test_executor_summary_line(self):
        executor = SweepExecutor(jobs=1)
        executor.map(recording_row_point, [0, 1])
        assert executor.stats.summary() == (
            "[executor] 2 evaluated, 0 cache hits, 0 failures"
        )

    def test_cache_counts_reduce_the_fold(self, tmp_path):
        # Hits, misses and stores are the executor's tallies: a cold
        # map misses and stores each point, a warm one hits each.
        points = [0, 1]
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        executor.map(recording_row_point, points, key_configs=key_configs(points))
        executor.map(recording_row_point, points, key_configs=key_configs(points))
        stats = executor.stats
        assert (stats.cache_hits, stats.evaluated) == (2, 2)
        assert len(executor.cache) == stats.evaluated - stats.quarantined - stats.uncacheable
        assert executor.cache.quarantined == 0


class TestPointRows:
    def test_event_rows_match_across_inline_farm_and_warm_cache(self, tmp_path):
        points = [0, 1, 2, 3]

        def lanes_and_rows(executor):
            outcomes = executor.map(
                recording_row_point, points, key_configs=key_configs(points)
            )
            return (
                {o.lane for o in outcomes},
                [o.to_event()["row"] for o in outcomes],
            )

        inline = lanes_and_rows(SweepExecutor(jobs=1))
        farm = lanes_and_rows(SweepExecutor(jobs=2, cache=ResultCache(tmp_path)))
        warm = lanes_and_rows(SweepExecutor(jobs=1, cache=ResultCache(tmp_path)))
        assert (inline[0], farm[0], warm[0]) == ({"inline"}, {"farm"}, {"cache"})
        assert inline[1] == farm[1] == warm[1]
        assert inline[1][1] == dataclasses.asdict(recording_row_point(1))

    def test_non_row_values_and_failures_carry_an_empty_row(self):
        assert PointOutcome(index=0, key=None, value=3).to_event()["row"] == {}
        assert PointOutcome(index=0, key=None, value=None).to_event()["row"] == {}


@pytest.fixture
def tracer():
    """An enabled tracer installed before any farm fork."""
    fresh = Tracer(enabled=True)
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


def outcome_span_names(outcomes):
    return sorted(record.name for o in outcomes for record in o.telemetry.spans)


@pytest.mark.parametrize("jobs", [1, 2])
class TestSpanWindowing:
    def test_a_coordinator_root_span_ships_with_no_point(self, tracer, jobs):
        with tracer.span("calibration"):
            pass
        outcomes = SweepExecutor(jobs=jobs).map(tracing_row_point, [0, 1, 2, 3])
        assert outcome_span_names(outcomes) == ["probe.point"] * 4
        # The coordinator's span is left for the run's finalize.
        assert [r.name for r in tracer.drain_since(0)] == ["calibration"]

    def test_a_span_open_around_map_does_not_swallow_point_spans(
        self, tracer, jobs
    ):
        with tracer.span("optimizer.round"):
            outcomes = SweepExecutor(jobs=jobs).map(tracing_row_point, [0, 1, 2, 3])
        assert outcome_span_names(outcomes) == ["probe.point"] * 4
        (round_span,) = tracer.drain_since(0)
        assert round_span.name == "optimizer.round"
        assert round_span.children == ()
