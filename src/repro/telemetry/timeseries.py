"""Time-series counter sampling: bounded, named-channel timelines.

Spans (:mod:`repro.telemetry.trace`) say how long each phase took; the
:class:`CounterSampler` says what the *modelled chip* was doing while it
ran.  Instrumented sites deposit one ``(channel, value)`` reading per
interesting boundary — the end of each kernel run, power fixed-point
iterations, thermal solves — and each sweep
point's capture window (:mod:`repro.telemetry.record`) drains those
readings into its :class:`~repro.telemetry.record.PointTelemetry`,
from where they reach the run's ``timeline.jsonl`` artifact and the
Perfetto counter tracks.

Two hot-path properties:

* **Zero-allocation no-op when disabled.**  ``sampler.sample(...)`` on
  a disabled sampler is one attribute check — no timestamp read, no
  object created — so the simulator calls it unconditionally.
* **Bounded, preallocated memory when enabled.**  Readings land in
  three parallel columns preallocated to ``max_samples``; past the cap
  the sampler counts drops instead of growing, and the drop count
  feeds the ``sampler-overflow`` alert rule.

Sampling is *read-only* over the simulation: it observes finished
counters and never feeds anything back, so every simulated counter is
bitwise-identical whether sampling is enabled or not (pinned by the
differential suite in tests/telemetry).

Timestamps share the span timebase (absolute wall-clock microseconds,
fork-inherited anchor), so counter tracks line up with span rows in one
exported trace.  All clock reads live in this module — instrumented
``sim/``/``power/``/``thermal/`` code only passes values, which keeps
the determinism checker's wall-clock rule quiet without suppressions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.telemetry.trace import _ANCHOR_NS
from repro.units import KILO


@dataclass(frozen=True)
class SampleRecord:
    """One counter reading, flattened for transport and persistence.

    Travels in :class:`~repro.telemetry.record.PointTelemetry` through
    the executor's outcome channel (and the result cache), and is the
    per-line payload of a run's ``timeline.jsonl``.
    """

    channel: str
    #: Absolute wall-clock microseconds on the span timebase.
    t_us: float
    value: float

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the ``timeline.jsonl`` line payload)."""
        return {"channel": self.channel, "t_us": self.t_us, "value": self.value}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SampleRecord":
        """Inverse of :meth:`to_dict` (used by the exporters)."""
        return cls(
            channel=str(document["channel"]),
            t_us=float(document["t_us"]),
            value=float(document["value"]),
        )


class CounterSampler:
    """Collects counter readings for one process; bounded and drainable.

    A disabled sampler allocates no buffers; an enabled one preallocates
    its three columns once and never grows.  ``mark()``/``drain_since``
    let a capture window take exactly the readings deposited inside it.
    """

    def __init__(self, enabled: bool = True, max_samples: int = 200_000) -> None:
        self.enabled = enabled
        self.max_samples = max_samples
        #: Readings currently buffered (the next write index).
        self.count = 0
        #: ``sample()`` calls refused because the buffer was full.
        self.dropped = 0
        capacity = max_samples if enabled else 0
        self._channels: List[str] = [""] * capacity
        self._times: List[float] = [0.0] * capacity
        self._values: List[float] = [0.0] * capacity

    def sample(self, channel: str, value: float) -> None:
        """Deposit one reading; no-op when disabled, counted when full."""
        if not self.enabled:
            return
        n = self.count
        if n >= self.max_samples:
            self.dropped += 1
            return
        self._channels[n] = channel
        self._times[n] = (time.perf_counter_ns() + _ANCHOR_NS) / KILO
        self._values[n] = value
        self.count = n + 1

    def mark(self) -> int:
        """Current buffer position, for a later :meth:`drain_since`."""
        return self.count

    def drain_since(self, mark: int) -> List[SampleRecord]:
        """Readings deposited after ``mark``; removes exactly those."""
        mark = max(0, min(mark, self.count))
        records = [
            SampleRecord(self._channels[i], self._times[i], self._values[i])
            for i in range(mark, self.count)
        ]
        self.count = mark
        return records

    def records(self) -> List[SampleRecord]:
        """A non-destructive snapshot of the buffered readings."""
        return [
            SampleRecord(self._channels[i], self._times[i], self._values[i])
            for i in range(self.count)
        ]

    def reset(self) -> None:
        """Drop all buffered readings and counters (keeps enabled state)."""
        self.count = 0
        self.dropped = 0


def channel_values(samples: Any) -> Dict[str, List[float]]:
    """Group sample values by channel, in sample order.

    Accepts any iterable of :class:`SampleRecord`-shaped objects; the
    CLI, the alert engine, and the equivalence tests all compare
    timelines through this view (values, not timestamps — replayed
    cache samples keep their original timestamps).
    """
    grouped: Dict[str, List[float]] = {}
    for record in samples:
        grouped.setdefault(record.channel, []).append(record.value)
    return grouped


#: The process-wide sampler every instrumented module consults.
#: Disabled by default: the no-op path costs one attribute check.
_SAMPLER = CounterSampler(enabled=False)


def get_sampler() -> CounterSampler:
    """The process-wide sampler."""
    return _SAMPLER


def set_sampler(sampler: CounterSampler) -> CounterSampler:
    """Replace the process-wide sampler; returns the previous one."""
    global _SAMPLER
    previous, _SAMPLER = _SAMPLER, sampler
    return previous


def sample(channel: str, value: float) -> None:
    """Deposit one reading on the process-wide sampler (no-op when disabled)."""
    _SAMPLER.sample(channel, value)
