"""The top-level chip multiprocessor: cores + L1s + bus + L2 + DRAM.

:class:`ChipMultiprocessor` assembles the Table 1 machine, runs one
parallel workload to completion, and returns a :class:`SimulationResult`
with every counter the power/thermal pipeline needs.

Scheduling is conservative-time: a min-heap keyed on each core's local
clock always advances the furthest-behind core, so shared-resource
reservations (bus, locks, memory banks) are handed out in consistent
global-time order.  Barriers park arriving cores until the last thread
arrives; the release pays a fixed synchronisation cost.

Two kernels drive that scheduler: the reference interpreter
(:func:`_reference_loop`, one :meth:`Core.step` per heap pop) and the
default fast path (:func:`_fast_loop`), one loop that runs every core
over a compiled program with bitwise-identical counters.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim import ops
from repro.sim.bus import SharedBus
from repro.sim.cache import EXCLUSIVE, MODIFIED, SHARED, Cache
from repro.sim.clock import ClockDomain
from repro.sim.coherence import CoherenceStats, MESIController
from repro.sim.config import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_CRITICAL,
    OP_LOAD,
    OP_STORE,
    CMPConfig,
    CoreTimingConfig,
    KernelStats,
)
from repro.sim.cpu import AT_BARRIER, DONE, RUNNING, Core, CoreStats, LockTable
from repro.sim.memory import MainMemory
from repro.sim.ops import CompiledProgram, OpStreamCache, prepare_streams
from repro.telemetry.record import record_kernel
from repro.telemetry.trace import get_tracer
from repro.units import PICO

#: The fast loop's horizon when no other core is pending in the heap:
#: compares greater than every real ``(time_ps, core_id)`` key.
_NO_HORIZON = (float("inf"), -1)


@dataclass
class SimulationResult:
    """Everything one simulation run produced."""

    config: CMPConfig
    n_threads: int
    execution_time_ps: int
    core_stats: List[CoreStats]
    coherence: CoherenceStats
    l1_caches: List[Cache]
    l2: Cache
    bus: SharedBus
    memory_requests: int
    lock_acquires: int
    lock_contended: int
    barriers: int
    #: Host-side kernel profiling (never affects simulated counters).
    kernel: Optional[KernelStats] = None

    @property
    def execution_time_s(self) -> float:
        """Wall-clock execution time in seconds."""
        return self.execution_time_ps * PICO

    @property
    def total_instructions(self) -> int:
        """Dynamic instructions over all threads."""
        return sum(s.instructions for s in self.core_stats)

    @property
    def average_cpi(self) -> float:
        """Aggregate CPI: total core-busy cycles per instruction."""
        clock = ClockDomain(self.config.frequency_hz)
        total_cycles = 0.0
        for s in self.core_stats:
            total_cycles += clock.ps_to_cycles(s.total_active_ps)
        instr = self.total_instructions
        return total_cycles / instr if instr else 0.0

    def l1_miss_rate(self) -> float:
        """Combined L1 data miss rate."""
        return self.coherence.l1_miss_rate()

    def memory_stall_fraction(self) -> float:
        """Fraction of total core-active time spent stalled on memory."""
        active = sum(s.total_active_ps for s in self.core_stats)
        stalled = sum(s.stall_mem_ps for s in self.core_stats)
        return stalled / active if active else 0.0


class ChipMultiprocessor:
    """Builds and runs the Table 1 CMP on one workload."""

    #: Safety valve against scheduler bugs: no sane run needs more steps.
    MAX_STEPS = 500_000_000

    def __init__(
        self, config: CMPConfig | None = None, fast_path: bool = True
    ) -> None:
        self.config = config or CMPConfig()
        self.fast_path = fast_path

    def run(
        self,
        thread_ops: CompiledProgram | Sequence[Iterable[tuple]],
        timing: CoreTimingConfig | Sequence[CoreTimingConfig] | None = None,
        warmup_barriers: int = 0,
    ) -> SimulationResult:
        """Simulate the workload's threads to completion on a fresh machine.

        ``thread_ops`` supplies one operation stream per thread, or a
        whole :class:`repro.sim.ops.CompiledProgram` (resolved once for
        this machine's L1 geometry, so every V/f point of a sweep shares
        it).  The number of threads must not exceed the configured core
        count (unused cores are shut down, consuming nothing — Section
        4.1).

        ``warmup_barriers`` implements the paper's "skip initialization"
        methodology: when that many barriers have completed, all activity
        counters are reset and the measured execution time starts there,
        while cache/coherence state carries over warm.

        ``fast_path`` (constructor) selects the execution kernel: the
        fast path (:func:`_fast_loop`) runs resolved streams and
        short-circuits L1 hits; the reference interpreter
        (:func:`_reference_loop`) routes every op through the
        controller.  Given raw streams, the reference interpreter
        consumes them lazily and the fast path resolves them first
        (:func:`repro.sim.ops.prepare_streams`).  Both produce
        bitwise-identical counters.
        """
        config = self.config
        use_fast = self.fast_path
        program: Optional[CompiledProgram] = None
        if isinstance(thread_ops, CompiledProgram):
            program = thread_ops
            if program.geometry != config.l1_config.geometry:
                raise ConfigurationError(
                    f"program resolved for L1 geometry {program.geometry}, "
                    f"machine has {config.l1_config.geometry}"
                )
        elif use_fast:
            program = prepare_streams(thread_ops, config.l1_config)
        streams = program.streams if program is not None else thread_ops
        n_threads = len(streams)
        if n_threads < 1:
            raise ConfigurationError("need at least one thread")
        if n_threads > config.n_cores:
            raise ConfigurationError(
                f"{n_threads} threads exceed the {config.n_cores}-core chip"
            )
        if timing is None:
            timings = [CoreTimingConfig()] * n_threads
        elif isinstance(timing, CoreTimingConfig):
            timings = [timing] * n_threads
        else:
            timings = list(timing)
            if len(timings) != n_threads:
                raise ConfigurationError(
                    "need one CoreTimingConfig per thread"
                )

        clock = ClockDomain(config.frequency_hz)
        bus = SharedBus(config.bus_config, clock)
        memory = MainMemory(config.memory_config)
        l1s = [Cache(config.l1_config) for _ in range(n_threads)]
        l2 = Cache(config.l2_config)
        controller = MESIController(
            l1s,
            l2,
            bus,
            memory,
            clock,
            l1_hit_cycles=config.l1_hit_cycles,
            l2_hit_cycles=config.l2_hit_cycles,
            cache_to_cache_cycles=config.cache_to_cache_cycles,
        )
        locks = LockTable()
        cores = [
            Core(i, ops, controller, clock, timings[i], locks)
            for i, ops in enumerate(streams)
        ]
        barriers = _Barriers(
            n_threads,
            clock.cycles_to_ps(config.barrier_release_cycles),
            warmup_barriers,
            # End of initialization: reset every activity counter;
            # caches stay warm.
            lambda: _reset_counters(cores, l1s, l2, controller, bus, memory, locks),
        )

        tracer = get_tracer()
        with tracer.span(
            "kernel.window",
            mode="fast" if use_fast else "reference",
            threads=n_threads,
        ):
            # repro: allow[DET-WALLCLOCK] host-side kernel timing; never feeds simulated state
            wall_start = time.perf_counter()
            if use_fast:
                # An enabled tracer (--telemetry-dir or --profile) turns
                # the per-subsystem slow-path timers on: they are
                # host-side only and feed KernelStats.subsystem_s, never
                # the simulated counters.
                kernel = _fast_loop(
                    cores, program, barriers, tracer.enabled, self.MAX_STEPS
                )
            else:
                kernel = _reference_loop(cores, barriers, self.MAX_STEPS)
            # repro: allow[DET-WALLCLOCK] host-side kernel timing; never feeds simulated state
            kernel.sim_wall_s = time.perf_counter() - wall_start

        if barriers.waiting:
            stuck = sorted(
                core_id for waiters in barriers.waiting.values() for core_id in waiters
            )
            raise SimulationError(
                f"deadlock: threads {stuck} never released from a barrier "
                "(threads must all reach every barrier)"
            )

        execution_time = (
            max(core.stats.end_time_ps for core in cores)
            - barriers.measurement_start_ps
        )
        return SimulationResult(
            config=config,
            n_threads=n_threads,
            execution_time_ps=execution_time,
            core_stats=[core.stats for core in cores],
            coherence=controller.stats,
            l1_caches=l1s,
            l2=l2,
            bus=bus,
            memory_requests=memory.requests,
            lock_acquires=locks.acquires,
            lock_contended=locks.contended_acquires,
            barriers=barriers.completed,
            kernel=kernel,
        )


def run_workload(
    model,
    n_threads: int,
    config: CMPConfig,
    cache: Optional[OpStreamCache] = ops.stream_cache,
) -> SimulationResult:
    """Compile ``model`` at ``n_threads`` (through ``cache``) and run it.

    The run's ``KernelStats`` carry the compile's provenance and go to
    the capture window around the call (:func:`record_kernel`).
    """
    compiled = ops.compile_workload(model, n_threads, config.l1_config, cache=cache)
    result = ChipMultiprocessor(config).run(
        compiled.program,
        model.core_timing(),
        warmup_barriers=model.warmup_barriers,
    )
    if result.kernel is not None:
        result.kernel.compile_s = compiled.seconds
        result.kernel.compile_cache_hit = compiled.from_cache
        result.kernel.compile_cache_evicted = compiled.evicted
        record_kernel(result.kernel)
    return result


class _Barriers:
    """Barrier arrivals and the warm-up countdown of one run."""

    def __init__(
        self,
        n_threads: int,
        release_ps: int,
        warmup_barriers: int,
        reset: Callable[[], None],
    ) -> None:
        self.n_threads = n_threads
        self.release_ps = release_ps
        self.warmup_remaining = warmup_barriers
        self.reset = reset
        #: Barrier id -> ids of the cores parked there, in arrival order.
        self.waiting: Dict[int, List[int]] = {}
        #: Barriers completed since the warm-up reset.
        self.completed = 0
        self.measurement_start_ps = 0

    def arrive(
        self, barrier_id: int, core_id: int, arrival_ps: List[int]
    ) -> Tuple[List[int], int]:
        """Park ``core_id`` at ``barrier_id``.

        ``arrival_ps`` holds each parked core's arrival time.  Returns
        the released cores and the release time once the last thread
        arrives (the release pays the fixed synchronisation cost), else
        no cores.  The caller charges each released core's wait and
        then calls :meth:`after_release`.
        """
        waiters = self.waiting.setdefault(barrier_id, [])
        waiters.append(core_id)
        if len(waiters) < self.n_threads:
            return [], 0
        del self.waiting[barrier_id]
        self.completed += 1
        release = max(arrival_ps[w] for w in waiters) + self.release_ps
        return waiters, release

    def after_release(self, release: int) -> bool:
        """Count a release against the warm-up; True when it just reset.

        The reset discards the waits the release just charged.
        """
        if self.warmup_remaining and self.completed == self.warmup_remaining:
            self.measurement_start_ps = release
            self.completed = 0
            self.warmup_remaining = 0
            self.reset()
            return True
        return False


def _reference_loop(
    cores: List[Core], barriers: _Barriers, max_steps: int
) -> KernelStats:
    """The reference interpreter: one ``Core.step`` per heap pop."""
    heap: List[tuple] = [(0, i) for i in range(len(cores))]
    heappop = heapq.heappop
    heappush = heapq.heappush
    arrival_ps = [0] * len(cores)
    steps = 0
    ops = 0
    barrier_ops = 0
    while heap:
        steps += 1
        if steps > max_steps:
            raise SimulationError("scheduler exceeded MAX_STEPS (deadlock?)")
        _, core_id = heappop(heap)
        core = cores[core_id]
        status = core.step()
        if status == RUNNING:
            ops += 1
            heappush(heap, (core.time_ps, core_id))
        elif status == AT_BARRIER:
            ops += 1
            barrier_ops += 1
            arrival_ps[core_id] = core.time_ps
            waiters, release = barriers.arrive(
                core.pending_barrier, core_id, arrival_ps
            )
            for waiter_id in waiters:
                waiter = cores[waiter_id]
                waiter.stats.sync_wait_ps += release - waiter.time_ps
                waiter.time_ps = release
                heappush(heap, (release, waiter_id))
            if waiters:
                barriers.after_release(release)
    return KernelStats(
        mode="reference",
        total_ops=ops,
        fast_path_ops=0,
        slow_path_ops=ops - barrier_ops,
        barrier_ops=barrier_ops,
    )


def _fast_loop(
    cores: List[Core],
    program: CompiledProgram,
    barriers: _Barriers,
    timed: bool,
    max_steps: int,
) -> KernelStats:
    """The fast path: one loop that runs every core over ``program``.

    The loop owns the scheduler heap and keeps each core's frame in
    lists indexed by core id, so a core switch rebinds a few locals.  It
    runs the current core's ops until a *scheduling point*: the
    *safe-horizon* rule.  ``(next_time, next_id)`` is the heap's top key
    — the virtual time at which another core acts next.  Any op
    touching state another core can observe or mutate (shared-visible
    loads/stores — even L1 hits, since a peer's miss can invalidate or
    downgrade our lines — and critical sections) executes only while
    this core's ``(t, core_id)`` key is still below that heap key, i.e.
    exactly while the reference scheduler would keep popping this core
    anyway.  L1 hits on *provably private* lines (classified before the
    run: touched by exactly one thread across the whole workload) are
    exempt — no peer transaction can ever observe or mutate them, their
    inline effects (own-set LRU reorder, silent E->M, commutative
    counter increments) commute with every peer action, so they resolve
    inline regardless of heap position and only the remaining
    shared-visible ops yield to the horizon.  Within the horizon,
    shared-visible L1 hits in a suitable MESI state also resolve inline
    (flat-array probe, move-to-front on commit, batched counters); a
    miss or an upgrade is one controller call on the probed line
    (:meth:`MESIController.miss`, :meth:`MESIController.upgrade`), and a
    critical section runs inline around the same store path.  Past the
    horizon, the core re-enters the heap and waits its turn.  Compute
    bursts touch only private state and run unconditionally; barrier
    registration is order-insensitive (the release is a max over frozen
    arrival times).  This makes the fast path's interleaving of *shared*
    state mutations identical to the reference interpreter's, hence
    bitwise-identical counters (docs/MODEL.md §3.2).

    L1 hits short-circuit the controller because the controller bills a
    hit in the same clock the core folds into its base CPI: every core
    and the controller share the one chip clock, so a hit costs zero
    stall either way.

    Counters are batched per core in flat lists and written to
    :class:`CoreStats`, the L1s and the controller once, at the end of
    the run; the warm-up reset zeroes them with the machine's own.
    """
    n_threads = len(cores)
    controller = cores[0].controller
    l1s = controller.l1s
    l1_config = l1s[0].config
    assoc = l1_config.associativity
    line_shift = l1_config.line_shift
    n_sets = l1_config.n_sets
    way_shift = l1_config.way_shift
    miss = controller.miss
    upgrade = controller.upgrade
    locks = cores[0].locks
    hit_ps = cores[0]._hit_ps
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    heappush = heapq.heappush
    # Each core's frame: (ops, op count, L1 tags, L1 states, private
    # lines, burst-cost memo of (duration_ps, instructions) per burst
    # length).  The caches mutate their arrays in place.
    frames = [
        (ops, len(ops), l1._tags, l1._states, private, {})
        for ops, l1, private in zip(program.streams, l1s, program.private_lines)
    ]
    lock_ps = [core._lock_ps for core in cores]
    mlp = [core.timing.memory_parallelism for core in cores]
    cursor = [0] * n_threads
    # The time each core parked at a barrier or finished.
    parked_ps = [0] * n_threads
    # Counters since the warm-up reset.  Every load/store is one
    # instruction and one L1 access, so instructions and hits derive
    # from these at the end.
    busy = [0] * n_threads
    burst_instr = [0] * n_threads  # burst instructions, critical sections' too
    loads = [0] * n_threads
    stores = [0] * n_threads
    misses = [0] * n_threads
    stall = [0] * n_threads
    sync = [0] * n_threads
    criticals = [0] * n_threads
    counters = (busy, burst_instr, loads, stores, misses, stall, sync, criticals)
    # Whole-run tallies (the warm-up reset leaves KernelStats alone).
    slow_ops = 0
    critical_ops = 0
    barrier_ops = 0
    memory_s = 0.0
    critical_s = 0.0

    heap: List[tuple] = [(0, i) for i in range(1, n_threads)]
    t, c = 0, 0
    ops, n_ops, tags, states, private, burst_ps = frames[0]
    i = 0
    steps = 1
    while True:
        if heap:
            next_time, next_id = heap[0]
        else:
            next_time, next_id = _NO_HORIZON
        # Whether this core still leads the reference pop order.  The
        # heap-key comparison is loop-invariant while t stands still,
        # and inline commits never move t — only compute bursts and
        # slow ops do — so one boolean carries the horizon state
        # between them.  (t == next_time with c == next_id is
        # impossible: each core has at most one heap entry, and this
        # one was just popped.)
        lead = t < next_time or (t == next_time and c < next_id)
        busy_d = 0
        burst_instr_d = 0
        loads_d = 0
        stores_d = 0
        status = DONE
        while i < n_ops:
            op = ops[i]
            kind = op[0]
            if kind == OP_COMPUTE:
                cost = burst_ps.get(op[1])
                if cost is None:
                    cost = burst_ps[op[1]] = cores[c]._burst_cost(op[1])
                t += cost[0]
                busy_d += cost[0]
                burst_instr_d += cost[1]
                i += 1
                lead = t < next_time or (t == next_time and c < next_id)
                continue
            if kind == OP_LOAD:
                # Mutation-free probe first: nothing moves until the op
                # commits.  Line and flat set base are geometry-resolved
                # ahead of the run (prepare_streams), and index 1 is the
                # line's first byte: a miss needs nothing finer.
                line = op[2]
                base = op[3]
                w = base
                end = base + assoc
                while w < end and tags[w] != line:
                    w += 1
                if w < end and (lead or line in private):
                    if w != base:
                        state = states[w]
                        while w > base:
                            tags[w] = tags[w - 1]
                            states[w] = states[w - 1]
                            w -= 1
                        tags[base] = line
                        states[base] = state
                    loads_d += 1
                    i += 1
                    continue
                # Shared-visible (or missing) load: only while this core
                # still leads the reference pop order.
                if not lead:
                    status = RUNNING
                    break
                address = op[1]
                is_write = False
                loads_d += 1
            elif kind == OP_STORE:
                line = op[2]
                base = op[3]
                w = base
                end = base + assoc
                while w < end and tags[w] != line:
                    w += 1
                if w < end:
                    state = states[w]
                    if (state == MODIFIED or state == EXCLUSIVE) and (
                        lead or line in private
                    ):
                        while w > base:
                            tags[w] = tags[w - 1]
                            states[w] = states[w - 1]
                            w -= 1
                        tags[base] = line
                        states[base] = MODIFIED
                        stores_d += 1
                        i += 1
                        continue
                if not lead:
                    status = RUNNING
                    break
                address = op[1]
                is_write = True
                stores_d += 1
            elif kind == OP_BARRIER:
                # Order-insensitive registration: ends the batch.
                i += 1
                status = AT_BARRIER
                break
            elif kind == OP_CRITICAL:
                # Lock-table traffic is always shared-visible.
                if not lead:
                    status = RUNNING
                    break
            else:
                raise ConfigurationError(f"unknown op kind {kind}")
            # A slow op inside the horizon, at exactly the scheduler
            # position the reference interpreter gives it.
            if timed:
                # repro: allow[DET-WALLCLOCK] host-side profiling timer; never feeds simulated state
                started = time.perf_counter()
            if kind == OP_CRITICAL:
                # Core._run_critical: the lock, its overhead, the burst
                # from the memo, then the protected read-modify-write
                # store, probed here like a prepared store.
                lock_id = op[1]
                grant = locks.acquire(lock_id, t)
                sync[c] += grant - t
                t = grant + lock_ps[c]
                busy_d += lock_ps[c]
                n_instructions = op[2]
                if n_instructions:
                    cost = burst_ps.get(n_instructions)
                    if cost is None:
                        cost = burst_ps[n_instructions] = cores[c]._burst_cost(
                            n_instructions
                        )
                    t += cost[0]
                    busy_d += cost[0]
                    burst_instr_d += n_instructions
                address = op[3]
                line = address >> line_shift
                base = (line % n_sets) << way_shift
                w = base
                end = base + assoc
                while w < end and tags[w] != line:
                    w += 1
                is_write = True
                stores_d += 1
            # Inside the horizon a load reaching here missed and a store
            # missed or hit a SHARED line; a critical section's store
            # may also hit in E or M.
            if w < end:
                state = states[w]
                while w > base:
                    tags[w] = tags[w - 1]
                    states[w] = states[w - 1]
                    w -= 1
                tags[base] = line
                if state == SHARED:
                    states[base] = SHARED
                    done = upgrade(c, line, base, t)
                else:
                    # Silent E -> M (or an M hit): no stall.
                    states[base] = MODIFIED
                    done = t
            else:
                done = miss(c, line, base, address, t, is_write)
                misses[c] += 1
            # L1 hits are fully pipelined on the EV6 (their cost is part
            # of the base CPI); the OoO window overlaps part of a miss.
            delay = done - t
            if delay > hit_ps:
                delay = int((delay - hit_ps) / mlp[c])
                t += delay
                stall[c] += delay
            slow_ops += 1
            if kind == OP_CRITICAL:
                locks.release(lock_id, t)
                criticals[c] += 1
                critical_ops += 1
            if timed:
                # repro: allow[DET-WALLCLOCK] host-side profiling timer; never feeds simulated state
                elapsed = time.perf_counter() - started
                if kind == OP_CRITICAL:
                    critical_s += elapsed
                else:
                    memory_s += elapsed
            i += 1
            lead = t < next_time or (t == next_time and c < next_id)

        busy[c] += busy_d
        burst_instr[c] += burst_instr_d
        loads[c] += loads_d
        stores[c] += stores_d
        cursor[c] = i
        if status == RUNNING:
            # This core no longer leads, so the heap is not empty.
            t, c = heapreplace(heap, (t, c))
        else:
            parked_ps[c] = t
            if status == AT_BARRIER:
                barrier_ops += 1
                waiters, release = barriers.arrive(op[1], c, parked_ps)
                for waiter_id in waiters:
                    sync[waiter_id] += release - parked_ps[waiter_id]
                    heappush(heap, (release, waiter_id))
                if waiters and barriers.after_release(release):
                    for counter in counters:
                        counter[:] = [0] * n_threads
            if not heap:
                break
            t, c = heappop(heap)
        steps += 1
        if steps > max_steps:
            raise SimulationError("scheduler exceeded MAX_STEPS (deadlock?)")
        ops, n_ops, tags, states, private, burst_ps = frames[c]
        i = cursor[c]

    coherence = controller.stats
    for c, core in enumerate(cores):
        stats = core.stats
        memory_ops = loads[c] + stores[c]
        stats.instructions += burst_instr[c] + memory_ops
        stats.icache_accesses += burst_instr[c] + memory_ops
        stats.loads += loads[c]
        stats.stores += stores[c]
        stats.critical_sections += criticals[c]
        stats.busy_ps += busy[c]
        stats.stall_mem_ps += stall[c]
        stats.sync_wait_ps += sync[c]
        stats.end_time_ps = parked_ps[c]
        l1 = l1s[c]
        l1.hits += memory_ops - misses[c]
        l1.misses += misses[c]
        coherence.l1_hits += memory_ops - misses[c]
        coherence.l1_misses += misses[c]
    kernel = KernelStats(
        mode="fast",
        total_ops=program.total_ops,
        fast_path_ops=program.total_ops - slow_ops - barrier_ops,
        slow_path_ops=slow_ops,
        barrier_ops=barrier_ops,
    )
    if timed:
        if critical_ops:
            kernel.subsystem_s["critical"] = critical_s
        if critical_ops < slow_ops:
            kernel.subsystem_s["memory"] = memory_s
    return kernel


def _reset_counters(
    cores: List[Core],
    l1s: List[Cache],
    l2: Cache,
    controller: MESIController,
    bus: SharedBus,
    memory: MainMemory,
    locks: LockTable,
) -> None:
    """Zero every activity counter at the end of initialization."""
    for core in cores:
        core.stats = CoreStats()
    for l1 in l1s:
        l1.hits = l1.misses = 0
        l1.evictions = l1.writebacks = 0
    l2.hits = l2.misses = l2.evictions = l2.writebacks = 0
    controller.stats = CoherenceStats()
    bus.transactions = bus.data_transfers = 0
    bus.busy_ps = bus.wait_ps = 0
    memory.requests = 0
    locks.acquires = locks.contended_acquires = 0
