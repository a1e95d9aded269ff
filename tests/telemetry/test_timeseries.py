"""Unit tests for the bounded counter sampler and its module-level API."""

import pytest

from repro.telemetry.record import disable_telemetry, enable_telemetry
from repro.telemetry.timeseries import (
    CounterSampler,
    SampleRecord,
    channel_values,
    get_sampler,
    sample,
    set_sampler,
)
from repro.telemetry.trace import get_tracer, set_tracer


@pytest.fixture(autouse=True)
def restore_global_telemetry():
    """Every test leaves the process-wide sampler and tracer as it found them."""
    sampler, tracer = get_sampler(), get_tracer()
    yield
    set_sampler(sampler)
    set_tracer(tracer)


class TestCounterSampler:
    def test_disabled_sampler_allocates_nothing_and_ignores_samples(self):
        sampler = CounterSampler(enabled=False)
        assert len(sampler._channels) == 0
        assert len(sampler._times) == 0
        assert len(sampler._values) == 0
        sampler.sample("sim.ipc", 1.5)
        assert sampler.count == 0
        assert sampler.dropped == 0
        assert sampler.drain_since(0) == []

    def test_enabled_sampler_records_channel_value_and_timestamp(self):
        sampler = CounterSampler(enabled=True, max_samples=16)
        sampler.sample("power.total_w", 42.0)
        sampler.sample("sim.ipc", 1.25)
        records = sampler.drain_since(0)
        assert [(r.channel, r.value) for r in records] == [
            ("power.total_w", 42.0),
            ("sim.ipc", 1.25),
        ]
        # Absolute-microsecond timebase, emission-ordered.
        assert records[0].t_us > 0
        assert records[0].t_us <= records[1].t_us
        assert sampler.count == 0

    def test_buffer_cap_counts_drops_instead_of_growing(self):
        sampler = CounterSampler(enabled=True, max_samples=4)
        for i in range(6):
            sampler.sample("c", float(i))
        assert sampler.count == 4
        assert sampler.dropped == 2
        assert [r.value for r in sampler.drain_since(0)] == [0.0, 1.0, 2.0, 3.0]

    def test_mark_and_drain_since_take_only_the_window(self):
        sampler = CounterSampler(enabled=True, max_samples=16)
        sampler.sample("calibration", 1.0)  # pre-window (inherited) reading
        mark = sampler.mark()
        sampler.sample("point", 2.0)
        sampler.sample("point", 3.0)
        window = sampler.drain_since(mark)
        assert [r.value for r in window] == [2.0, 3.0]
        # The pre-window reading stays for its owner to drain later.
        assert sampler.count == 1
        assert [r.channel for r in sampler.drain_since(0)] == ["calibration"]

    def test_drain_since_clamps_out_of_range_marks(self):
        sampler = CounterSampler(enabled=True, max_samples=8)
        sampler.sample("c", 1.0)
        assert sampler.drain_since(99) == []
        assert sampler.count == 1
        assert [r.value for r in sampler.drain_since(-5)] == [1.0]
        assert sampler.count == 0

    def test_records_is_non_destructive(self):
        sampler = CounterSampler(enabled=True, max_samples=8)
        sampler.sample("c", 7.0)
        assert [r.value for r in sampler.records()] == [7.0]
        assert sampler.count == 1

    def test_reset_clears_readings_and_drop_count(self):
        sampler = CounterSampler(enabled=True, max_samples=2)
        for i in range(3):
            sampler.sample("c", float(i))
        sampler.reset()
        assert sampler.count == 0
        assert sampler.dropped == 0
        assert sampler.enabled


class TestModuleLevelSampler:
    def test_default_sampler_is_disabled(self):
        disable_telemetry()
        assert not get_sampler().enabled
        sample("sim.ipc", 1.0)  # must be a no-op
        assert get_sampler().count == 0

    def test_enable_telemetry_enables_the_sampler(self):
        enable_telemetry()
        sampler = get_sampler()
        assert sampler.enabled and sampler.max_samples == 200_000
        sample("sim.ipc", 2.0)
        assert sampler.count == 1

    def test_set_sampler_returns_the_previous_one(self):
        original = get_sampler()
        replacement = CounterSampler(enabled=True, max_samples=4)
        assert set_sampler(replacement) is original
        assert get_sampler() is replacement
        assert set_sampler(original) is replacement


class TestSampleRecord:
    def test_dict_round_trip(self):
        record = SampleRecord(channel="power.total_w", t_us=123.5, value=41.0)
        assert SampleRecord.from_dict(record.to_dict()) == record

    def test_channel_values_groups_in_order(self):
        records = [
            SampleRecord("a", 1.0, 10.0),
            SampleRecord("b", 2.0, 20.0),
            SampleRecord("a", 3.0, 30.0),
        ]
        assert channel_values(records) == {"a": [10.0, 30.0], "b": [20.0]}
