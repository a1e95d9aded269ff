"""Tracing must observe the simulation, never perturb it.

The acceptance bar for the telemetry layer: every simulated counter is
bitwise identical with the tracer enabled and disabled, while the
enabled run actually records the expected span taxonomy.
"""

from dataclasses import asdict

import pytest

from repro.harness.context import ExperimentContext
from repro.telemetry.trace import Tracer, set_tracer
from repro.workloads import workload_by_name


def counters(result):
    return (
        result.execution_time_ps,
        [asdict(s) for s in result.core_stats],
        asdict(result.coherence),
        result.memory_requests,
        result.lock_acquires,
        result.barriers,
    )


@pytest.fixture(scope="module")
def traced_and_untraced():
    """One (result, power) pair per tracer state, same machine and workload."""
    model = workload_by_name("Barnes")
    baseline_ctx = ExperimentContext(workload_scale=0.05)
    baseline = baseline_ctx.run(model, 4)

    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        traced_ctx = ExperimentContext(workload_scale=0.05)
        traced = traced_ctx.run(model, 4)
    finally:
        set_tracer(previous)
    return baseline, traced, tracer


class TestTelemetryEquivalence:
    def test_simulated_counters_are_bitwise_identical(self, traced_and_untraced):
        (result_off, _), (result_on, _), _ = traced_and_untraced
        assert counters(result_off) == counters(result_on)

    def test_power_and_thermal_outcomes_are_identical(self, traced_and_untraced):
        (_, power_off), (_, power_on), _ = traced_and_untraced
        assert power_off.total_w == power_on.total_w
        assert power_off.average_temperature_c == power_on.average_temperature_c
        assert (
            power_off.thermal.block_temperatures_k
            == power_on.thermal.block_temperatures_k
        )

    def test_traced_run_recorded_the_expected_span_taxonomy(
        self, traced_and_untraced
    ):
        _, _, tracer = traced_and_untraced
        names = set()

        def walk(record):
            names.add(record.name)
            for child in record.children:
                walk(child)

        records = tracer.drain_since(0)
        for record in records:
            walk(record)
        assert {"kernel.window", "power.solve", "thermal.solve"} <= names
        assert not any(name.startswith("kernel.slow_path.") for name in names)
        # Spans carry time; the op counts live in KernelStats alone.
        window = next(r for r in records if r.name == "kernel.window")
        assert dict(window.args).keys() == {"mode", "threads"}
        assert tracer.dropped == 0

    def test_kernel_stats_gain_subsystem_timers_under_tracing(
        self, traced_and_untraced
    ):
        (result_off, _), (result_on, _), _ = traced_and_untraced
        # Tracing turns the host-side slow-path timers on (they feed
        # KernelStats.subsystem_s); the un-traced run leaves them off.
        assert result_on.kernel.subsystem_s
        assert not result_off.kernel.subsystem_s
        # The op counters themselves still agree exactly.
        assert result_on.kernel.total_ops == result_off.kernel.total_ops
        assert result_on.kernel.fast_path_ops == result_off.kernel.fast_path_ops
