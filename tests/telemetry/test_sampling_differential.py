"""Counter sampling must observe the simulation, never perturb it.

The sampler's acceptance bar, mirrored from the tracer's
(tests/telemetry/test_equivalence.py) but over adversarial generated
workloads: every simulated counter is bitwise identical with sampling
disabled, enabled, and enabled-but-overflowed (a buffer so small the
run drops most readings — the cap must only affect the timeline, not
the machine).  Reuses the synthetic workload generator and the
full-counter snapshot from the kernel-v2 differential suite.
"""

import pytest
from hypothesis import given, settings

from repro.sim import ChipMultiprocessor
from repro.telemetry.timeseries import (
    CounterSampler,
    channel_values,
    get_sampler,
    set_sampler,
)
from tests.sim.test_kernel_v2_differential import counters, synthetic_workloads


@pytest.fixture(autouse=True)
def restore_global_sampler():
    previous = get_sampler()
    yield
    set_sampler(previous)


def run_with(sampler, threads, config):
    previous = set_sampler(sampler)
    try:
        return ChipMultiprocessor(config, fast_path=False).run(
            [iter(t) for t in threads]
        )
    finally:
        set_sampler(previous)


class TestSamplingDifferential:
    @settings(max_examples=30, deadline=None)
    @given(synthetic_workloads())
    def test_counters_identical_sampling_off_on_and_overflowed(self, case):
        threads, config = case
        baseline = run_with(CounterSampler(enabled=False), threads, config)

        sampler = CounterSampler(enabled=True, max_samples=64)
        sampled = run_with(sampler, threads, config)
        assert counters(baseline) == counters(sampled)
        # The window epilogue deposited the sim.* channels.
        grouped = channel_values(sampler.drain_since(0))
        assert "sim.ipc" in grouped and "sim.l1_miss_rate" in grouped

        tiny = CounterSampler(enabled=True, max_samples=2)
        overflowed = run_with(tiny, threads, config)
        assert counters(baseline) == counters(overflowed)
        assert tiny.count == 2
        assert tiny.dropped > 0  # one window emits >2 channels

    @settings(max_examples=15, deadline=None)
    @given(synthetic_workloads())
    def test_sampled_values_are_reproducible_across_reruns(self, case):
        """Two sampled runs of one workload read identical counter values.

        Timestamps differ run to run (wall clock); the sampled *values*
        come from the deterministic simulation, so the per-channel value
        series must match exactly.
        """
        threads, config = case
        first = CounterSampler(enabled=True, max_samples=64)
        run_with(first, threads, config)
        second = CounterSampler(enabled=True, max_samples=64)
        run_with(second, threads, config)
        assert channel_values(first.drain_since(0)) == channel_values(
            second.drain_since(0)
        )
