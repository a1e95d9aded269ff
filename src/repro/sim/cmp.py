"""The top-level chip multiprocessor: cores + L1s + bus + L2 + DRAM.

:class:`ChipMultiprocessor` assembles the Table 1 machine, runs one
parallel workload to completion, and returns a :class:`SimulationResult`
with every counter the power/thermal pipeline needs.

Scheduling is conservative-time: a min-heap keyed on each core's local
clock always advances the furthest-behind core, so shared-resource
reservations (bus, locks, memory banks) are handed out in consistent
global-time order.  Barriers park arriving cores until the last thread
arrives; the release pays a fixed synchronisation cost.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.sim.bus import SharedBus
from repro.sim.cache import Cache
from repro.sim.clock import ClockDomain
from repro.sim.coherence import CoherenceStats, MESIController
from repro.sim.config import CMPConfig, CoreTimingConfig, KernelStats
from repro.sim.cpu import DONE, RUNNING, Core, CoreStats, LockTable
from repro.sim.memory import MainMemory
from repro.sim.ops import CompiledProgram, prepare_streams
from repro.telemetry.trace import get_tracer
from repro.units import PICO

#: Horizon passed to ``step_fast`` when no other core is pending in the
#: heap: compares greater than every real ``(time_ps, core_id)`` key.
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
        fast path runs resolved streams and short-circuits L1 hits; the
        reference interpreter routes every op through the controller.
        Given raw streams, the reference interpreter consumes them
        lazily and the fast path resolves them first
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
        private = program.private_lines if program is not None else []
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

        tracer = get_tracer()
        # An enabled tracer (--telemetry-dir or --profile) turns the
        # per-subsystem slow-path timers on: they are host-side only and
        # feed KernelStats.subsystem_s, never the simulated counters.
        timed = tracer.enabled
        cores = [
            Core(i, ops, controller, clock, timings[i], locks)
            for i, ops in enumerate(streams)
        ]
        if use_fast:
            for core, ops, private_lines in zip(cores, streams, private):
                core.bind_stream(ops)
                core.prepare_fast_path(timed=timed, private_lines=private_lines)
        steppers = [
            core.step_fast if use_fast else core.step for core in cores
        ]

        with tracer.span(
            "kernel.window",
            mode="fast" if use_fast else "reference",
            threads=n_threads,
        ):
            # repro: allow[DET-WALLCLOCK] host-side kernel timing; never feeds simulated state
            wall_start = time.perf_counter()

            heap: List[tuple] = [(0, i) for i in range(n_threads)]
            heappop = heapq.heappop
            heappush = heapq.heappush
            barrier_waiters: Dict[int, List[int]] = {}
            barriers_seen = 0
            barrier_ops = 0
            reference_ops = 0
            finished = 0
            barrier_release_ps = clock.cycles_to_ps(config.barrier_release_cycles)
            steps = 0
            measurement_start_ps = 0
            warmup_remaining = warmup_barriers

            while heap:
                steps += 1
                if steps > self.MAX_STEPS:
                    raise SimulationError(
                        "scheduler exceeded MAX_STEPS (deadlock?)"
                    )
                _, core_id = heappop(heap)
                core = cores[core_id]
                if use_fast:
                    # Safe horizon for the batch: the next core's heap key.
                    # Parked (barrier) and finished cores cannot act before
                    # this core, so an empty heap means no horizon at all.
                    if heap:
                        next_time, next_id = heap[0]
                    else:
                        next_time, next_id = _NO_HORIZON
                    status = steppers[core_id](next_time, next_id)
                else:
                    status = steppers[core_id]()
                if status != DONE:
                    reference_ops += 1
                if status == RUNNING:
                    heappush(heap, (core.time_ps, core_id))
                elif status == DONE:
                    finished += 1
                else:  # AT_BARRIER
                    barrier_ops += 1
                    barrier_id = core.pending_barrier
                    waiters = barrier_waiters.setdefault(barrier_id, [])
                    waiters.append(core_id)
                    if len(waiters) == n_threads:
                        barriers_seen += 1
                        release = max(cores[w].time_ps for w in waiters)
                        release += barrier_release_ps
                        for waiter_id in waiters:
                            waiter = cores[waiter_id]
                            waiter.stats.sync_wait_ps += release - waiter.time_ps
                            waiter.time_ps = release
                            heappush(heap, (release, waiter_id))
                        del barrier_waiters[barrier_id]
                        if warmup_remaining and barriers_seen == warmup_remaining:
                            # End of initialization: reset every activity
                            # counter; caches stay warm.
                            measurement_start_ps = release
                            barriers_seen = 0
                            warmup_remaining = 0
                            _reset_counters(
                                cores, l1s, l2, controller, bus, memory, locks
                            )

            # repro: allow[DET-WALLCLOCK] host-side kernel timing; never feeds simulated state
            sim_wall_s = time.perf_counter() - wall_start

        if finished != n_threads:
            stuck = sorted(
                core_id for waiters in barrier_waiters.values() for core_id in waiters
            )
            raise SimulationError(
                f"deadlock: threads {stuck} never released from a barrier "
                "(threads must all reach every barrier)"
            )

        if use_fast:
            fast_ops = sum(core.fast_ops for core in cores)
            slow_ops = sum(core.slow_ops for core in cores)
            kernel = KernelStats(
                mode="fast",
                total_ops=fast_ops + slow_ops + barrier_ops,
                fast_path_ops=fast_ops,
                slow_path_ops=slow_ops,
                barrier_ops=barrier_ops,
                sim_wall_s=sim_wall_s,
            )
            subsystem_totals: Dict[str, float] = {}
            for core in cores:
                # Sorted so the totals' accumulation and insertion order
                # never depend on which op kind a core hit first.
                for name, seconds in sorted(core.subsystem_s.items()):
                    subsystem_totals[name] = (
                        subsystem_totals.get(name, 0.0) + seconds
                    )
            kernel.subsystem_s.update(sorted(subsystem_totals.items()))
        else:
            kernel = KernelStats(
                mode="reference",
                total_ops=reference_ops,
                fast_path_ops=0,
                slow_path_ops=reference_ops - barrier_ops,
                barrier_ops=barrier_ops,
                sim_wall_s=sim_wall_s,
            )

        execution_time = (
            max(core.stats.end_time_ps for core in cores) - measurement_start_ps
        )
        result = SimulationResult(
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
            barriers=barriers_seen,
            kernel=kernel,
        )
        return result


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
