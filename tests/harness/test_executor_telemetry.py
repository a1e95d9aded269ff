"""Cross-process telemetry through the executor's outcome channel."""

import os
import time
from dataclasses import dataclass, field
from typing import Dict

import pytest

from repro.harness.executor import ResultCache, SweepExecutor
from repro.harness.profiling import SimPointRow
from repro.telemetry.record import (
    KernelRecord,
    PointTelemetry,
    capturing,
    record_kernel,
)


@dataclass
class FakeKernelStats:
    """KernelStats-shaped object for feeding the capture buffer."""

    mode: str = "fast"
    total_ops: int = 100
    fast_path_ops: int = 80
    slow_path_ops: int = 15
    barrier_ops: int = 5
    sim_wall_s: float = 0.01
    compile_s: float = 0.002
    compile_cache_hit: bool = True
    subsystem_s: Dict[str, float] = field(default_factory=lambda: {"memory": 0.004})


def recording_row_point(point):
    """Picklable evaluator that deposits one kernel record per call."""
    record_kernel(FakeKernelStats(total_ops=100 * (point + 1)))
    return SimPointRow(
        app=f"app-{point}",
        n=point,
        frequency_hz=3.2e9,
        voltage=1.1,
        execution_time_ps=1000 * (point + 1),
        total_power_w=float(point),
        core_power_density_w_m2=1.0,
        average_temperature_c=45.0,
        average_cpi=1.0,
        l1_miss_rate=0.01,
        memory_stall_fraction=0.1,
        bus_utilisation=0.2,
    )


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
            assert isinstance(telemetry.kernels[0], KernelRecord)
        assert outcomes[0].telemetry.total_ops == 100
        assert outcomes[1].telemetry.total_ops == 200

    def test_capture_window_closes_after_each_point(self):
        executor = SweepExecutor(jobs=1)
        executor.map(recording_row_point, [0])
        assert not capturing()
        record_kernel(FakeKernelStats())  # must be a no-op now
        outcomes = executor.map(recording_row_point, [1])
        assert len(outcomes[0].telemetry.kernels) == 1

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

    def test_cache_summary_line(self, tmp_path):
        points = [0, 1]
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        executor.map(recording_row_point, points, key_configs=key_configs(points))
        executor.map(recording_row_point, points, key_configs=key_configs(points))
        assert executor.cache.stats.summary() == (
            "[cache] 2 hits, 2 misses, 2 stores"
        )
