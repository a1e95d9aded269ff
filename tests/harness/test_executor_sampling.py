"""Counter samples and spans through the executor's outcome channel, per lane.

The sweep executor must ship each point's sampled readings back to the
coordinator no matter which lane evaluated it — inline or the farm,
with or without a retry policy — and a warm-cache rerun must replay the
original timeline.  Per-channel value totals are therefore identical across all
lanes (timestamps differ; values are deterministic).  A point's spans
leave by the same window: only its own, in either lane.
"""

import os

import pytest

from repro.harness.executor import ResultCache, RetryPolicy, SweepExecutor
from repro.telemetry.timeseries import (
    CounterSampler,
    channel_values,
    get_sampler,
    sample,
    set_sampler,
)
from repro.telemetry.trace import Tracer, set_tracer, span


def sampling_row_point(point):
    """Picklable evaluator depositing two readings per call."""
    sample("probe.value", float(point))
    sample("probe.squared", float(point * point))
    return point * 2


def tracing_row_point(point):
    """Picklable evaluator opening one span per call."""
    with span("probe.point", point=point):
        return point * 2


def key_configs(points):
    return [{"kind": "sampling-test", "point": p} for p in points]


def fast_policy(**kwargs):
    kwargs.setdefault("backoff_base_s", 0.0)
    kwargs.setdefault("backoff_max_s", 0.0)
    return RetryPolicy(**kwargs)


def outcome_channels(outcomes):
    """Per-channel sorted value lists across every outcome's samples."""
    merged = channel_values(
        record for o in outcomes for record in o.telemetry.samples
    )
    return {name: sorted(values) for name, values in merged.items()}


POINTS = [0, 1, 2, 3]

EXPECTED = {
    "probe.value": [0.0, 1.0, 2.0, 3.0],
    "probe.squared": [0.0, 1.0, 4.0, 9.0],
}


@pytest.fixture(autouse=True)
def enabled_sampler():
    """An enabled sampler installed before any farm fork."""
    previous = set_sampler(CounterSampler(enabled=True, max_samples=1024))
    yield
    set_sampler(previous)


class TestLaneSampleTotals:
    def test_inline_lane_carries_samples(self):
        outcomes = SweepExecutor(jobs=1).map(sampling_row_point, POINTS)
        assert [o.lane for o in outcomes] == ["inline"] * 4
        assert outcome_channels(outcomes) == EXPECTED

    def test_plain_farm_matches_serial_totals(self):
        outcomes = SweepExecutor(jobs=4).map(sampling_row_point, POINTS)
        assert [o.lane for o in outcomes] == ["farm"] * 4
        assert os.getpid() not in {o.telemetry.pid for o in outcomes}
        assert outcome_channels(outcomes) == EXPECTED

    def test_farm_lane_matches_serial_totals(self):
        executor = SweepExecutor(jobs=2, retry=fast_policy(max_retries=1))
        outcomes = executor.map(sampling_row_point, POINTS)
        assert [o.lane for o in outcomes] == ["farm"] * 4
        assert outcome_channels(outcomes) == EXPECTED

    def test_warm_cache_replays_the_original_timeline(self, tmp_path):
        cold = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        cold_outcomes = cold.map(
            sampling_row_point, POINTS, key_configs=key_configs(POINTS)
        )

        warm = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        warm_outcomes = warm.map(
            sampling_row_point, POINTS, key_configs=key_configs(POINTS)
        )
        assert warm.stats.evaluated == 0
        assert [o.lane for o in warm_outcomes] == ["cache"] * 4
        # Replays carry the original samples verbatim, timestamps included.
        for cold_outcome, warm_outcome in zip(cold_outcomes, warm_outcomes):
            assert warm_outcome.telemetry.samples == cold_outcome.telemetry.samples
        assert outcome_channels(warm_outcomes) == EXPECTED


class TestSampleWindowing:
    def test_points_never_drain_pre_existing_coordinator_readings(self):
        sampler = get_sampler()
        sampler.sample("calibration.probe", 1.0)
        outcomes = SweepExecutor(jobs=1).map(sampling_row_point, [5])
        # The point took only its own window...
        assert outcome_channels(outcomes) == {
            "probe.value": [5.0],
            "probe.squared": [25.0],
        }
        # ...leaving the calibration reading for the run's finalize.
        assert [r.channel for r in sampler.records()] == ["calibration.probe"]

    def test_disabled_sampler_yields_empty_sample_tuples(self):
        set_sampler(CounterSampler(enabled=False))
        outcomes = SweepExecutor(jobs=1).map(sampling_row_point, POINTS)
        assert all(o.telemetry.samples == () for o in outcomes)


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
        outcomes = SweepExecutor(jobs=jobs).map(tracing_row_point, POINTS)
        assert outcome_span_names(outcomes) == ["probe.point"] * 4
        # The coordinator's span is left for the run's finalize.
        assert [r.name for r in tracer.drain_since(0)] == ["calibration"]

    def test_a_span_open_around_map_does_not_swallow_point_spans(
        self, tracer, jobs
    ):
        with tracer.span("optimizer.round"):
            outcomes = SweepExecutor(jobs=jobs).map(tracing_row_point, POINTS)
        assert outcome_span_names(outcomes) == ["probe.point"] * 4
        (round_span,) = tracer.drain_since(0)
        assert round_span.name == "optimizer.round"
        assert round_span.children == ()
