"""Cross-process telemetry records, the kernel ledger, and the capture buffer.

The sweep executor fans points out to worker processes; each worker's
:class:`~repro.sim.cmp.KernelStats` and span trees would otherwise die
with the task.  These records are the picklable, cache-encodable form in
which that telemetry travels back through the executor's outcome channel
and is persisted by the :class:`~repro.harness.executor.ResultCache`
alongside the point's value.

:class:`KernelAggregate` is the one fold over those records: the
executor keeps one (``SweepExecutor.kernels``) and folds every outcome's
records into it, whatever process or cache produced them.  ``--profile``,
the run manifest's ``kernel`` block and the ``repro trace metrics``
header all read that single object.

The capture buffer is per-process module state: the executor's point
wrapper brackets each evaluation with :func:`begin_point_capture` /
:func:`end_point_capture`, and
:meth:`ExperimentContext.run <repro.harness.context.ExperimentContext.run>`
deposits one :class:`KernelRecord` per simulation via
:func:`record_kernel`.  Outside a capture window ``record_kernel`` is a
no-op, so long-lived processes that never drain (test suites, notebooks)
do not accumulate records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.telemetry.timeseries import SampleRecord
from repro.telemetry.trace import SpanRecord


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
    #: Counter readings deposited during the evaluation (empty when
    #: sampling was disabled).  Unlike spans these persist in the result
    #: cache, so warm-cache reruns replay the original timeline.
    samples: Tuple[SampleRecord, ...] = ()

    @property
    def total_ops(self) -> int:
        """Simulated source ops across the point's runs."""
        return sum(k.total_ops for k in self.kernels)

    @property
    def fast_path_ops(self) -> int:
        """Fast-path-resolved ops across the point's runs."""
        return sum(k.fast_path_ops for k in self.kernels)


# ---------------------------------------------------------------------------
# Per-process capture buffer.
# ---------------------------------------------------------------------------

_capturing = False
_kernels: List[KernelRecord] = []


def capturing() -> bool:
    """Whether a point-capture window is open in this process."""
    return _capturing


def record_kernel(stats: Any) -> None:
    """Deposit one run's kernel stats into the open capture window.

    No-op when no window is open, so unharnessed ``context.run`` calls
    cost one boolean check and leak nothing.
    """
    if _capturing:
        _kernels.append(KernelRecord.from_stats(stats))


def begin_point_capture() -> None:
    """Open a capture window (discarding any stale, undrained one)."""
    global _capturing
    _capturing = True
    _kernels.clear()


def end_point_capture() -> Tuple[KernelRecord, ...]:
    """Close the capture window and return the runs it collected."""
    global _capturing
    _capturing = False
    records = tuple(_kernels)
    _kernels.clear()
    return records
