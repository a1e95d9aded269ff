"""Structured tracing: nested spans with monotonic timestamps.

A :class:`Span` brackets one phase of work (workload compile, kernel
window, power solve, thermal solve, ...); a :class:`Tracer` maintains the
current span stack so spans opened inside other spans nest into a tree.
Completed top-level spans accumulate on the tracer until they are
*drained* — ``mark()``/``drain_since(mark)`` — into :class:`SpanRecord`
trees, by the capture window of :mod:`repro.telemetry.record`.

Two properties the hot paths rely on:

* **Zero-allocation no-op when disabled.**  ``tracer.span(...)`` on a
  disabled tracer returns the shared :data:`NULL_SPAN` singleton — no
  object is created, no timestamp read.  The simulator can therefore
  call ``span()`` unconditionally.
* **Bounded memory when enabled.**  A tracer buffers at most
  ``max_spans`` spans (open, or closed and not yet drained); past the
  cap, ``span()`` degrades to the no-op singleton and counts the drop,
  so a pathological sweep cannot exhaust memory through its own
  instrumentation.  A drain frees headroom.

Timestamps come from :func:`time.perf_counter_ns` (monotonic, immune to
clock steps) and are mapped to absolute wall-clock microseconds through
a process-start anchor, so spans recorded by different worker processes
line up on one Chrome-trace timeline (fork inherits the parent's
anchor; ``CLOCK_MONOTONIC`` is system-wide on Linux).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.units import GIGA, KILO

#: Maps ``perf_counter_ns`` readings onto the wall clock: absolute
#: nanoseconds = reading + anchor.  Captured once per process tree.
_ANCHOR_NS = time.time_ns() - time.perf_counter_ns()


def now_us() -> float:
    """Current absolute time in microseconds on the span timebase."""
    return (time.perf_counter_ns() + _ANCHOR_NS) / KILO


def _scalar(value: Any) -> Any:
    """Coerce a span argument to a JSON-representable scalar."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, flattened for serialisation.

    The executor's value codec (and plain JSON) can carry this across
    process boundaries; ``start_us`` is absolute wall-clock microseconds
    so records from different processes share a timeline.
    """

    name: str
    start_us: float
    duration_us: float
    args: Tuple[Tuple[str, Any], ...] = ()
    children: Tuple["SpanRecord", ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the ``spans.jsonl`` line payload)."""
        document: Dict[str, Any] = {
            "name": self.name,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
        }
        if self.args:
            document["args"] = {key: value for key, value in self.args}
        if self.children:
            document["children"] = [c.to_dict() for c in self.children]
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict` (used by the exporters)."""
        return cls(
            name=str(document["name"]),
            start_us=float(document["start_us"]),
            duration_us=float(document["duration_us"]),
            args=tuple(sorted(document.get("args", {}).items())),
            children=tuple(
                cls.from_dict(c) for c in document.get("children", ())
            ),
        )


class Span:
    """One timed phase; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("name", "args", "start_ns", "end_ns", "children", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self.name = name
        self.args = args
        self.start_ns = 0
        self.end_ns = 0
        self.children: List["Span"] = []
        self._tracer = tracer

    def set(self, **args: Any) -> None:
        """Attach (or update) arguments on the span."""
        self.args.update(args)

    @property
    def duration_s(self) -> float:
        """Span duration in seconds (0 while still open)."""
        return max(0, self.end_ns - self.start_ns) / GIGA

    def __enter__(self) -> "Span":
        self.start_ns = time.perf_counter_ns()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_ns = time.perf_counter_ns()
        self._tracer._close(self)

    def record(self) -> SpanRecord:
        """The span (and its subtree) as an immutable record."""
        return SpanRecord(
            name=self.name,
            start_us=(self.start_ns + _ANCHOR_NS) / KILO,
            duration_us=max(0, self.end_ns - self.start_ns) / KILO,
            args=tuple(
                sorted((key, _scalar(value)) for key, value in self.args.items())
            ),
            children=tuple(child.record() for child in self.children),
        )


class _NullSpan:
    """The do-nothing span a disabled tracer hands out (one per process)."""

    __slots__ = ()

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared no-op span: ``tracer.span(...)`` returns this when disabled,
#: so the instrumented hot paths allocate nothing.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one process; drained by the telemetry layer."""

    def __init__(self, enabled: bool = True, max_spans: int = 250_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        #: Spans buffered (open, or closed and undrained); drops start
        #: past the cap, and a drain gives the headroom back.
        self.count = 0
        #: ``span()`` calls refused because the cap was reached.
        self.dropped = 0
        #: Completed top-level spans awaiting a drain.
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **args: Any):
        """Open a nested span; returns :data:`NULL_SPAN` when disabled."""
        if not self.enabled:
            return NULL_SPAN
        if self.count >= self.max_spans:
            self.dropped += 1
            return NULL_SPAN
        self.count += 1
        return Span(self, name, args)

    def aggregate(self, name: str, seconds: float, count: int = 1, **args: Any) -> None:
        """Record pre-accumulated work as one closed span.

        For phases too hot to bracket individually (the coherence slow
        path times thousands of ops per window), callers accumulate wall
        time with raw counters and report the total once.  The span is
        placed so it *ends now* — the work happened somewhere inside the
        currently open span — and flagged ``aggregated`` with its event
        count so consumers do not mistake it for one contiguous interval.
        """
        if not self.enabled:
            return
        if self.count >= self.max_spans:
            self.dropped += 1
            return
        self.count += 1
        span = Span(self, name, args)
        span.set(aggregated=True, count=count)
        span.end_ns = time.perf_counter_ns()
        span.start_ns = span.end_ns - max(0, int(seconds * GIGA))
        self._close(span)

    def _close(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def mark(self) -> int:
        """Current root position, for a later :meth:`drain_since`."""
        return len(self.roots)

    def drain_since(self, mark: int) -> List[SpanRecord]:
        """Root span trees completed after ``mark``; removes exactly those."""
        mark = max(0, min(mark, len(self.roots)))
        taken = self.roots[mark:]
        del self.roots[mark:]
        records = [span.record() for span in taken]
        self.count -= sum(_size(record) for record in records)
        return records

    def swap_stack(self, stack: List[Span]) -> List[Span]:
        """Install ``stack`` as the open-span stack; returns the old one."""
        previous, self._stack = self._stack, stack
        return previous

    def reset(self) -> None:
        """Drop all collected spans and counters (keeps enabled state)."""
        self.roots.clear()
        self._stack.clear()
        self.count = 0
        self.dropped = 0


def _size(record: SpanRecord) -> int:
    """Spans in a record's tree."""
    return 1 + sum(_size(child) for child in record.children)


#: The process-wide tracer every instrumented module consults.  Disabled
#: by default: the no-op path costs one attribute check per call site.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the previous one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous


def span(name: str, **args: Any):
    """Open a span on the process-wide tracer (no-op when disabled)."""
    return _TRACER.span(name, **args)
