"""Tests for the span/tracer core: nesting, timing, no-op, bounds."""

import time

import pytest

from repro.telemetry.record import disable_telemetry, enable_telemetry
from repro.telemetry.trace import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    get_tracer,
    now_us,
    set_tracer,
    span,
)


@pytest.fixture
def tracer():
    """A fresh enabled tracer installed process-wide, restored after."""
    fresh = Tracer(enabled=True)
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


class TestDisabledTracer:
    def test_disabled_tracer_hands_out_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a", x=1)
        second = tracer.span("b")
        assert first is NULL_SPAN and second is NULL_SPAN
        assert tracer.count == 0

    def test_null_span_is_inert(self):
        with NULL_SPAN as opened:
            opened.set(anything=1)
        assert opened is NULL_SPAN

    def test_module_tracer_is_disabled_by_default(self):
        assert span("anything") is NULL_SPAN

    def test_aggregate_on_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.aggregate("hot", 0.5, count=100)
        assert tracer.roots == [] and tracer.count == 0


class TestNesting:
    def test_spans_nest_into_a_tree(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert tracer.roots == [outer]
        (root,) = tracer.drain_since(0)
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner.a", "inner.b"]

    def test_sibling_roots_accumulate_in_order(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.drain_since(0)] == ["first", "second"]
        assert tracer.drain_since(0) == []  # drained

    def test_span_survives_exceptions_and_still_closes(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        (outer,) = tracer.roots
        assert outer.end_ns >= outer.start_ns
        (root,) = tracer.drain_since(0)
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]


class TestTiming:
    def test_durations_are_monotone_and_contain_children(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert inner.duration_s >= 0.002
        assert outer.duration_s >= inner.duration_s
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns
        # The drained records keep the containment on the absolute timebase.
        (outer_record,) = tracer.drain_since(0)
        (inner_record,) = outer_record.children
        assert inner_record.duration_us >= 2000
        assert outer_record.start_us <= inner_record.start_us
        assert (
            inner_record.start_us + inner_record.duration_us
            <= outer_record.start_us + outer_record.duration_us
        )

    def test_now_us_tracks_the_wall_clock(self):
        assert abs(now_us() / 1e6 - time.time()) < 5.0

    def test_records_share_the_absolute_timebase(self, tracer):
        before = now_us()
        with tracer.span("timed"):
            pass
        after = now_us()
        (record,) = tracer.drain_since(0)
        assert before <= record.start_us <= after


class TestRecords:
    def test_record_flattens_args_and_children(self, tracer):
        with tracer.span("outer", mode="fast") as outer:
            outer.set(ops=42, obj=[1, 2])
            with tracer.span("inner"):
                pass
        (record,) = tracer.drain_since(0)
        args = dict(record.args)
        assert args["mode"] == "fast" and args["ops"] == 42
        assert args["obj"] == "[1, 2]"  # non-scalars are stringified
        assert record.children[0].name == "inner"

    def test_record_round_trips_through_dict(self, tracer):
        with tracer.span("outer", mode="fast"):
            with tracer.span("inner", n=3):
                pass
        (record,) = tracer.drain_since(0)
        assert SpanRecord.from_dict(record.to_dict()) == record

    def test_aggregate_spans_close_inside_the_open_parent(self, tracer):
        with tracer.span("window"):
            tracer.aggregate("slow_path.memory", 0.25, count=1000, sub="mem")
        (root,) = tracer.drain_since(0)
        (child,) = root.children
        args = dict(child.args)
        assert child.name == "slow_path.memory"
        assert args["aggregated"] is True
        assert args["count"] == 1000 and args["sub"] == "mem"
        assert child.duration_us == pytest.approx(0.25e6, rel=0.01)


class TestBounds:
    def test_max_spans_caps_recording_and_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=2)
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        third = tracer.span("three")
        assert third is NULL_SPAN
        tracer.aggregate("four", 0.1)
        assert tracer.count == 2
        assert tracer.dropped == 2
        assert len(tracer.drain_since(0)) == 2

    def test_reset_clears_spans_and_counters(self):
        tracer = Tracer(enabled=True, max_spans=1)
        with tracer.span("one"):
            pass
        tracer.span("refused")
        tracer.reset()
        assert (tracer.count, tracer.dropped, tracer.roots) == (0, 0, [])
        with tracer.span("again"):
            pass
        assert len(tracer.drain_since(0)) == 1


class TestDrainWindows:
    def test_mark_and_drain_since_take_only_the_window(self, tracer):
        with tracer.span("calibration"):
            pass
        mark = tracer.mark()
        with tracer.span("point"):
            pass
        assert [r.name for r in tracer.drain_since(mark)] == ["point"]
        assert [r.name for r in tracer.drain_since(0)] == ["calibration"]

    def test_a_drain_frees_headroom_under_the_cap(self):
        tracer = Tracer(enabled=True, max_spans=2)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.span("refused") is NULL_SPAN
        tracer.drain_since(0)
        assert tracer.count == 0
        with tracer.span("again"):
            pass
        assert [r.name for r in tracer.drain_since(0)] == ["again"]
        assert tracer.dropped == 1

    def test_swap_stack_sets_the_open_spans_aside(self, tracer):
        with tracer.span("round"):
            held = tracer.swap_stack([])
            with tracer.span("point"):
                pass
            tracer.swap_stack(held)
        assert [r.name for r in tracer.drain_since(0)] == ["point", "round"]


class TestProcessWideSwitches:
    def test_enable_and_disable_swap_the_module_tracer(self):
        previous = get_tracer()
        try:
            enable_telemetry()
            assert get_tracer().enabled
            disable_telemetry()
            assert not get_tracer().enabled
        finally:
            set_tracer(previous)
