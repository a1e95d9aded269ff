"""Cross-process telemetry records, the kernel ledger, and the capture window.

The sweep executor fans points out to worker processes; each worker's
:class:`~repro.sim.cmp.KernelStats` and span trees would otherwise die
with the task.  These records are the picklable, cache-encodable form in
which that telemetry travels back through the executor's outcome
channel and is persisted by the
:class:`~repro.harness.executor.ResultCache` alongside the point's value.
(What the modelled chip did at the point is the point's row, which the
``point`` event carries; see
:meth:`~repro.harness.executor.PointOutcome.to_event`.)

:class:`KernelAggregate` is the one fold over those records: the
executor keeps one (``SweepExecutor.kernels``) and folds every outcome's
records into it, whatever process or cache produced them.  ``--profile``,
the run manifest's ``kernel`` block and the ``repro trace metrics``
header all read that single object.

A process buffers two kinds of telemetry: the tracer's root spans and
the kernel records
:meth:`ExperimentContext.run <repro.harness.context.ExperimentContext.run>`
deposits via :func:`record_kernel`.  One rule takes them out: a
:class:`CaptureWindow` marks both buffers when it opens and, when it
closes, drains exactly what was buffered since (:func:`drain_since`).
The window also sets the open span stack aside, so the spans a point
opens are roots of that point, never children of a span the
coordinator held open around the sweep.  A forked worker inherits the
coordinator's buffers and open stack, and the marks and the set-aside
stack keep both out of its points.  The telemetry run's finalize drains
what is left from mark 0: the coordinator's own calibration,
precompile and ``optimizer.*`` spans.  Kernel records are buffered only
while a window is open, so simulations run outside any window (library
callers, say) buffer nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.telemetry.trace import SpanRecord, Tracer, get_tracer, set_tracer


@dataclass(frozen=True)
class KernelRecord:
    """One simulation run's kernel profile, flattened for transport.

    A picklable mirror of :class:`~repro.sim.cmp.KernelStats` (the
    ``subsystem_s`` dict becomes a sorted tuple of pairs so the record
    is hashable and cache-encodable).
    """

    mode: str
    total_ops: int
    fast_path_ops: int
    slow_path_ops: int
    barrier_ops: int
    sim_wall_s: float
    compile_s: float
    compile_cache_hit: bool
    compile_cache_evicted: bool = False
    subsystem_s: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_stats(cls, stats: Any) -> "KernelRecord":
        """Build a record from any ``KernelStats``-shaped object."""
        return cls(
            mode=stats.mode,
            total_ops=stats.total_ops,
            fast_path_ops=stats.fast_path_ops,
            slow_path_ops=stats.slow_path_ops,
            barrier_ops=stats.barrier_ops,
            sim_wall_s=stats.sim_wall_s,
            compile_s=stats.compile_s,
            compile_cache_hit=stats.compile_cache_hit,
            compile_cache_evicted=getattr(stats, "compile_cache_evicted", False),
            subsystem_s=tuple(sorted(stats.subsystem_s.items())),
        )


@dataclass
class KernelAggregate:
    """Kernel profiling folded over many simulation runs.

    The sweep executor owns one and folds every point outcome's kernel
    records into it: evaluated points count as :attr:`runs`, result-cache
    replays as :attr:`cached_runs`.  The executor also adds its
    coordinator-side precompile time to :attr:`compile_s`.
    """

    #: Simulations executed for this aggregate (any process).
    runs: int = 0
    #: Simulations replayed from the result cache; their op counters are
    #: included in the totals below, but their wall time reflects the
    #: *original* evaluation, not this invocation.
    cached_runs: int = 0
    total_ops: int = 0
    fast_path_ops: int = 0
    slow_path_ops: int = 0
    barrier_ops: int = 0
    sim_wall_s: float = 0.0
    compile_s: float = 0.0
    compile_cache_hits: int = 0
    #: Runs whose compile bumped an older program out of the bounded
    #: stream cache; a nonzero count on a repetitive campaign means the
    #: cache is too small for its working set.
    compile_cache_evictions: int = 0
    subsystem_s: Dict[str, float] = field(default_factory=dict)

    def add_record(self, kernel: KernelRecord, cached: bool = False) -> None:
        """Fold one run's record; ``cached`` marks a cache replay."""
        if cached:
            self.cached_runs += 1
        else:
            self.runs += 1
        self.total_ops += kernel.total_ops
        self.fast_path_ops += kernel.fast_path_ops
        self.slow_path_ops += kernel.slow_path_ops
        self.barrier_ops += kernel.barrier_ops
        self.sim_wall_s += kernel.sim_wall_s
        self.compile_s += kernel.compile_s
        self.compile_cache_hits += 1 if kernel.compile_cache_hit else 0
        self.compile_cache_evictions += 1 if kernel.compile_cache_evicted else 0
        # Sorted fold: accumulate alphabetically so the float totals (and
        # the dict's insertion order) never depend on the order a record
        # carried its pairs in.
        for name, seconds in sorted(kernel.subsystem_s):
            self.subsystem_s[name] = self.subsystem_s.get(name, 0.0) + seconds

    @property
    def ops_per_sec(self) -> float:
        """Aggregate simulated ops per host second in the kernel loop."""
        return self.total_ops / self.sim_wall_s if self.sim_wall_s > 0 else 0.0

    @property
    def fast_path_ratio(self) -> float:
        """Fraction of all ops the fast path resolved."""
        return self.fast_path_ops / self.total_ops if self.total_ops else 0.0

    def summary(self) -> str:
        """One human-readable line for the CLI's ``--profile`` output."""
        counted = self.runs + self.cached_runs
        if not counted:
            return "[kernel] no simulations ran"
        cached = f" (+{self.cached_runs} cached)" if self.cached_runs else ""
        line = (
            f"[kernel] {self.runs} runs{cached}, {self.total_ops:,} ops at "
            f"{self.ops_per_sec:,.0f} ops/s, "
            f"fast-path {100.0 * self.fast_path_ratio:.1f}%, "
            f"compile {self.compile_s:.2f}s "
            f"({self.compile_cache_hits}/{counted} stream-cache hits)"
        )
        if self.compile_cache_evictions:
            line += (
                f", {self.compile_cache_evictions} stream-cache evictions"
            )
        if self.subsystem_s:
            parts = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in sorted(self.subsystem_s.items())
            )
            line += f"\n[kernel] slow-path time: {parts}"
        return line


@dataclass(frozen=True)
class PointTelemetry:
    """Everything one sweep point's evaluation reported about itself.

    Travels in the :class:`~repro.harness.executor.PointOutcome` and in
    the result cache's per-point document, so a warm-cache rerun can
    still account for the op counts of the original evaluation.
    """

    #: Process that evaluated the point (the coordinator's own pid for
    #: inline evaluation; a worker pid under ``--jobs N``).
    pid: int
    #: Wall-clock start of the evaluation (absolute microseconds on the
    #: span timebase; see :func:`repro.telemetry.trace.now_us`).
    start_us: float
    #: Wall-clock seconds the evaluation took end to end.
    wall_s: float
    #: One record per simulation the point ran (profiling points run
    #: one; analytical points run none).
    kernels: Tuple[KernelRecord, ...] = ()
    #: Span trees completed during the evaluation (empty when tracing
    #: was disabled in the evaluating process).
    spans: Tuple[SpanRecord, ...] = ()

    @property
    def total_ops(self) -> int:
        """Simulated source ops across the point's runs."""
        return sum(k.total_ops for k in self.kernels)

    @property
    def fast_path_ops(self) -> int:
        """Fast-path-resolved ops across the point's runs."""
        return sum(k.fast_path_ops for k in self.kernels)


# ---------------------------------------------------------------------------
# Per-process buffers and the capture window.
# ---------------------------------------------------------------------------

_kernels: List[KernelRecord] = []
_open_windows = 0


def record_kernel(stats: Any) -> None:
    """Buffer one run's kernel stats for the capture window around it.

    No-op when no window is open, so unharnessed ``context.run`` calls
    cost one check and a long-lived process accumulates nothing.
    """
    if _open_windows:
        _kernels.append(KernelRecord.from_stats(stats))


class Captured(NamedTuple):
    """What a drain took: the telemetry parts of a ``PointTelemetry``."""

    kernels: Tuple[KernelRecord, ...]
    spans: Tuple[SpanRecord, ...]


def drain_since(kernels: int = 0, spans: int = 0) -> Captured:
    """Everything buffered after the marks (default: mark 0); removes exactly that."""
    taken = tuple(_kernels[kernels:])
    del _kernels[kernels:]
    return Captured(taken, tuple(get_tracer().drain_since(spans)))


class CaptureWindow:
    """One point evaluation's window over the process's buffers.

    ``with CaptureWindow() as window:`` marks the buffers and sets the
    open span stack aside; leaving the block, however it is left,
    restores the stack and drains the window into :attr:`captured`.
    """

    captured = Captured((), ())

    def __enter__(self) -> "CaptureWindow":
        global _open_windows
        tracer = get_tracer()
        self._marks = (len(_kernels), tracer.mark())
        self._stack = tracer.swap_stack([])
        _open_windows += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _open_windows
        _open_windows -= 1
        get_tracer().swap_stack(self._stack)
        self.captured = drain_since(*self._marks)


def enable_telemetry() -> None:
    """Install an enabled process-wide tracer."""
    set_tracer(Tracer(enabled=True))


def disable_telemetry() -> None:
    """Install a disabled process-wide tracer (the default)."""
    set_tracer(Tracer(enabled=False))
