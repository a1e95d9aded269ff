"""Operation encoding shared between workload models and the simulator.

Workload threads are lazy streams of tuples; the first element selects
the kind:

* ``(OP_COMPUTE, n_instructions)`` — a burst of ALU/branch work,
* ``(OP_LOAD, byte_address)`` — one data-cache read,
* ``(OP_STORE, byte_address)`` — one data-cache write,
* ``(OP_BARRIER, barrier_index)`` — global barrier (indices must be
  issued in the same order by every thread),
* ``(OP_CRITICAL, lock_id, n_instructions, byte_address)`` — a critical
  section: acquire the lock, run the burst, read-modify-write the
  protected address, release.

Plain tuples (rather than dataclasses) keep the per-op cost low — the
simulator consumes hundreds of thousands of these per run.

Compiled programs
-----------------
Generating a stream is itself expensive (the synthetic models draw from
seeded RNGs per op; traces parse text), and a V/f sweep re-simulates the
*same* stream at every operating point.  :func:`compile_workload` walks
every thread's generator once through :func:`prepare_streams`, which
resolves each load/store for the L1 geometry as it goes (one shared
tuple per distinct ``(kind, L1 line)`` of a thread, addressed by the
line's first byte), and memoizes the resulting
:class:`CompiledProgram` in a process-wide
:class:`OpStreamCache` keyed by the model's ``compile_key(n_threads)``
(workload identity x thread count) and the geometry.  Repeated
simulations of one workload at different V/f points skip generation
and resolution entirely: streams are clock-independent, which is what
makes the cache key V/f-free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.sim.config import (
    L1_TABLE1,
    OP_CRITICAL,
    OP_LOAD,
    OP_STORE,
    STREAM_CACHE_SIZE,
    CacheConfig,
)
from repro.telemetry.trace import get_tracer
from repro.workloads import writer


@dataclass(frozen=True)
class CompiledProgram:
    """Every thread of one workload, resolved for one L1 geometry.

    Built by :func:`prepare_streams`, the one pass over the generated
    streams; this is the only copy of the program a process keeps.
    """

    #: The resolved per-thread op lists (see :func:`prepare_streams`).
    streams: List[List[tuple]]
    #: Per-thread sets of provably private line addresses.
    private_lines: List[FrozenSet[int]]
    #: The ``CacheConfig.geometry`` the streams were resolved for.
    geometry: Tuple[int, int, int]

    @property
    def n_threads(self) -> int:
        """Number of per-thread streams."""
        return len(self.streams)

    @property
    def total_ops(self) -> int:
        """Op count across all threads."""
        return sum(len(ops) for ops in self.streams)


def prepare_streams(
    streams: Iterable[Iterable[tuple]], l1: CacheConfig
) -> CompiledProgram:
    """Walk ``streams`` once and resolve them for the L1 geometry ``l1``.

    ``streams`` may be any iterables, the workload's generators
    included; each is consumed once.  The program holds:

    * the *resolved* streams: each load and store becomes ``(kind,
      line_address, line, set_base)`` — its L1 line's first byte, the
      line, and the line's flat set base — so the hot loop indexes the
      flat tag array directly instead of doing shift/mod arithmetic per
      op.  Index 1 is what :meth:`repro.sim.cpu.Core.step` and a miss
      read, and nothing in the simulator works below line granularity:
      a miss takes its L2 line and DRAM bank as ``address >> l2_shift``,
      which the aligned address leaves unchanged because
      :class:`repro.sim.config.CMPConfig` requires L2 lines at least as
      long as L1 lines.  Immutable parts are shared: each distinct
      ``(kind, line)`` of a thread is one tuple object (per-thread load
      and store tables, dropped after the walk), equal critical-section
      ops of a thread are one object, compute and barrier ops pass
      through by identity, set bases come from one table of one int per
      set, and each distinct line of a thread is one int object (the
      thread's dict of lines is both the intern table and its
      touched-lines set);
    * the per-thread sets of *provably private* lines.  A line is
      private to thread ``t`` iff every data access to it — loads,
      stores, and critical-section read-modify-writes — across the
      whole workload comes from ``t``.  The fast path may resolve L1
      hits on private lines inline regardless of the scheduler horizon:
      no other core ever demand-accesses the line, so no peer
      transaction can invalidate, downgrade, or observe it (the proof
      obligation is spelled out in docs/MODEL.md §3.2).  Anything
      touched by two threads — including false-sharing-style overlap
      where threads touch different bytes of one line — is
      shared-visible for every thread.
    """
    line_shift, n_sets, way_shift = geometry = l1.geometry
    set_bases = [index << way_shift for index in range(n_sets)]
    threads: List[Tuple[List[tuple], Dict[int, int]]] = []
    for ops in streams:
        out: List[tuple] = []
        append = out.append
        lines: Dict[int, int] = {}
        intern = lines.setdefault
        loads: Dict[int, tuple] = {}
        stores: Dict[int, tuple] = {}
        criticals: Dict[tuple, tuple] = {}
        for op in ops:
            kind = op[0]
            if kind == OP_LOAD or kind == OP_STORE:
                line = op[1] >> line_shift
                table = loads if kind == OP_LOAD else stores
                resolved_op = table.get(line)
                if resolved_op is None:
                    line = intern(line, line)
                    resolved_op = table[line] = (
                        kind,
                        line << line_shift,
                        line,
                        set_bases[line % n_sets],
                    )
                append(resolved_op)
            elif kind == OP_CRITICAL:
                line = op[3] >> line_shift
                intern(line, line)
                append(criticals.setdefault(op, op))
            else:
                append(op)
        threads.append((out, lines))
    return _program(threads, geometry)


def _program(
    threads: List[Tuple[List[tuple], Dict[int, int]]],
    geometry: Tuple[int, int, int],
) -> CompiledProgram:
    """The program of per-thread (resolved ops, touched lines) pairs."""
    seen: Set[int] = set()
    shared: Set[int] = set()
    for _, lines in threads:
        shared |= lines.keys() & seen
        seen.update(lines)
    return CompiledProgram(
        streams=[ops for ops, _ in threads],
        private_lines=[frozenset(lines.keys() - shared) for _, lines in threads],
        geometry=geometry,
    )


def _compile(model, n_threads: int, l1: CacheConfig) -> CompiledProgram:
    """Every thread of ``model`` resolved for ``l1``.

    A plain :class:`repro.workloads.base.WorkloadModel` is written in one
    flat loop per thread (:mod:`repro.workloads.writer`); any other
    model goes through :func:`prepare_streams` over its ``thread_ops``,
    the reference both are pinned equal to.
    """
    if writer.writes(model):
        return _program(writer.write_threads(model, n_threads, l1.geometry), l1.geometry)
    return prepare_streams(
        (model.thread_ops(t, n_threads) for t in range(n_threads)), l1
    )


@dataclass
class CompileOutcome:
    """One :func:`compile_workload` call's result and provenance."""

    program: CompiledProgram
    #: True when the program came from the cache (warm compile).
    from_cache: bool
    #: Wall-clock seconds this call spent compiling (0 on a cache hit).
    seconds: float
    #: True when storing this program evicted another cached one (the
    #: bounded cache was full) — the telemetry signal that a campaign's
    #: working set exceeds ``OpStreamCache.maxsize``.
    evicted: bool = False


class OpStreamCache:
    """Bounded in-memory LRU cache of compiled programs.

    Keys pair whatever a workload's ``compile_key(n_threads)`` returns —
    any hashable value that changes iff the generated streams change —
    with the L1 geometry the program was resolved for.
    Compiled programs are immutable by convention (the simulator never
    mutates a stream), so one cached program may back many concurrent
    simulations in a process.

    The cache is bounded (LRU eviction at ``maxsize`` entries) so long
    ``characterize`` campaigns cannot grow the process-wide cache
    without limit, and instrumented: ``hits``/``misses``/``evictions``
    count over the cache's lifetime and are surfaced per run through
    :class:`repro.sim.config.KernelStats`.
    """

    def __init__(self, maxsize: int = STREAM_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._programs: Dict[Hashable, CompiledProgram] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, key: Hashable) -> Optional[CompiledProgram]:
        """The cached program for ``key``, refreshing its LRU position."""
        program = self._programs.get(key)
        if program is None:
            self.misses += 1
            return None
        self.hits += 1
        del self._programs[key]
        self._programs[key] = program
        return program

    def put(self, key: Hashable, program: CompiledProgram) -> bool:
        """Insert a program, evicting the least recently used if full.

        Returns True when an older program was evicted to make room.
        """
        evicted = False
        if key in self._programs:
            del self._programs[key]
        elif len(self._programs) >= self.maxsize:
            del self._programs[next(iter(self._programs))]
            self.evictions += 1
            evicted = True
        self._programs[key] = program
        return evicted

    def export_entries(self) -> List[tuple]:
        """``(key, program)`` pairs, LRU first (executor warm-up)."""
        return list(self._programs.items())

    def stats(self) -> Dict[str, int]:
        """Lifetime counters and current occupancy (one dict, for logs)."""
        return {
            "size": len(self._programs),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> None:
        """Drop every cached program (keeps hit/miss counters)."""
        self._programs.clear()


#: The process-wide compile cache :func:`compile_workload` consults.
stream_cache = OpStreamCache()


def compile_workload(
    model,
    n_threads: int,
    l1: CacheConfig = L1_TABLE1,
    cache: Optional[OpStreamCache] = stream_cache,
) -> CompileOutcome:
    """Compile (or fetch) every thread of ``model`` at ``n_threads`` for ``l1``.

    ``model`` follows the informal workload protocol
    (``thread_ops(tid, n)``); if it also provides ``compile_key(n)``
    returning a hashable key, the compiled program is memoized in
    ``cache`` under that key and the L1 geometry.  Models without a key
    (or ``cache=None``) compile fresh on every call.
    """
    key = None
    if cache is not None and hasattr(model, "compile_key"):
        key = (model.compile_key(n_threads), l1.geometry)
    if key is not None:
        program = cache.get(key)
        if program is not None:
            return CompileOutcome(program=program, from_cache=True, seconds=0.0)

    with get_tracer().span(
        "workload.compile",
        workload=getattr(model, "name", type(model).__name__),
        threads=n_threads,
    ) as span:
        # repro: allow[DET-WALLCLOCK] compile-time span timing; never feeds simulated state
        start = time.perf_counter()
        program = _compile(model, n_threads, l1)
        # repro: allow[DET-WALLCLOCK] compile-time span timing; never feeds simulated state
        seconds = time.perf_counter() - start
        span.set(ops=program.total_ops)
    evicted = False
    if key is not None:
        evicted = cache.put(key, program)
    return CompileOutcome(
        program=program, from_cache=False, seconds=seconds, evicted=evicted
    )
