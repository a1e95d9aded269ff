"""EV6-like core timing model.

We do not model the 21264's out-of-order machinery structurally; what the
paper's experiments need from a core is (a) an application-dependent base
CPI for cache-resident work, (b) realistic stalls on memory misses with a
bounded amount of latency overlap (the EV6 sustains several outstanding
misses), and (c) statistical instruction-fetch behaviour.  Those are the
three knobs :class:`CoreTimingConfig` exposes; everything else (hit
latencies, coherence, contention) is emergent from the memory system.

A core consumes its thread's operation stream one op per scheduler step
and advances its local picosecond clock.  Barriers are reported to the
scheduler (:mod:`repro.sim.cmp`), which parks the core until release;
critical sections serialise through a shared lock table.

Two execution paths produce bitwise-identical counters:

* :meth:`Core.step` — the reference interpreter: one op per scheduler
  pop, every memory operation routed through the MESI controller;
* :meth:`Core.step_fast` — the fast path over a *compiled* (list-backed)
  stream: compute bursts and loads/stores that hit the local L1 in a
  suitable MESI state are resolved inline — hoisted attribute lookups,
  precomputed burst durations, batched stat accumulation — and executed
  in batches between scheduler pops.  Anything touching shared state
  (bus, locks, misses, upgrades, barriers) falls back to the reference
  machinery at exactly the scheduler position the reference interpreter
  would give it, which is what makes the two paths bitwise-identical
  (the equivalence argument is spelled out in docs/MODEL.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.cache import EXCLUSIVE, MODIFIED
from repro.sim.clock import ClockDomain
from repro.sim.coherence import MESIController
from repro.sim.ops import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.units import PICO

# Core.step() statuses.
RUNNING = 0
AT_BARRIER = 1
DONE = 2


@dataclass(frozen=True)
class CoreTimingConfig:
    """Per-application core-timing knobs.

    Parameters
    ----------
    base_cpi:
        Cycles per instruction for cache-resident work on the 4-wide
        EV6-like core; compute-intensive codes with ILP sit near 0.6,
        branchy pointer-chasing codes near 1.2.
    icache_miss_rate:
        Statistical instruction-fetch miss rate; each miss stalls for an
        L2 hit.  SPLASH-2 codes have tiny instruction footprints.
    memory_parallelism:
        How much data-miss latency the core overlaps (outstanding-miss
        MLP).  1.0 = fully blocking; the EV6's non-blocking loads justify
        values up to ~2.
    lock_overhead_cycles:
        Pipeline cost of an acquire/release pair (LL/SC sequences).
    """

    base_cpi: float = 0.8
    icache_miss_rate: float = 0.001
    memory_parallelism: float = 1.5
    lock_overhead_cycles: int = 20

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ConfigurationError("base_cpi must be positive")
        if not 0.0 <= self.icache_miss_rate < 1.0:
            raise ConfigurationError("icache_miss_rate must be in [0, 1)")
        if self.memory_parallelism < 1.0:
            raise ConfigurationError("memory_parallelism must be >= 1")
        if self.lock_overhead_cycles < 0:
            raise ConfigurationError("lock_overhead_cycles must be >= 0")


@dataclass
class CoreStats:
    """Activity counters for one core (the Wattch inputs)."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    icache_accesses: int = 0
    critical_sections: int = 0
    busy_ps: int = 0
    stall_mem_ps: int = 0
    sync_wait_ps: int = 0
    #: Time spent in the thrifty-barrier sleep state (near-zero power).
    sleep_ps: int = 0
    end_time_ps: int = 0

    @property
    def total_active_ps(self) -> int:
        """Time the core was doing or waiting on work (not parked)."""
        return self.busy_ps + self.stall_mem_ps

    def instructions_per_cycle(self, frequency_hz: float) -> float:
        """IPC over the core's active time at its operating frequency."""
        cycles = self.total_active_ps * PICO * frequency_hz
        return self.instructions / cycles if cycles > 0 else 0.0


class LockTable:
    """Shared lock state: grant times per lock id, FIFO by request time."""

    def __init__(self) -> None:
        self._free_at: Dict[int, int] = {}
        self.contended_acquires = 0
        self.acquires = 0

    def acquire(self, lock_id: int, now_ps: int) -> int:
        """Request the lock at ``now_ps``; returns the grant time."""
        grant = max(now_ps, self._free_at.get(lock_id, 0))
        self.acquires += 1
        if grant > now_ps:
            self.contended_acquires += 1
        return grant

    def release(self, lock_id: int, at_ps: int) -> None:
        """Release the lock at ``at_ps``."""
        self._free_at[lock_id] = at_ps


class Core:
    """One EV6-like core executing a thread's operation stream."""

    def __init__(
        self,
        core_id: int,
        ops: Iterator[tuple],
        controller: MESIController,
        clock: ClockDomain,
        timing: CoreTimingConfig,
        locks: LockTable,
    ) -> None:
        self.core_id = core_id
        self._ops = iter(ops)
        self.controller = controller
        self.clock = clock
        self.timing = timing
        self.locks = locks
        self.time_ps = 0
        #: L1-hit latency in this core's clock.
        self._hit_ps = clock.cycles_to_ps(controller.l1_hit_cycles)
        self.stats = CoreStats()
        #: Barrier index the core is waiting at (valid after AT_BARRIER).
        self.pending_barrier: Optional[int] = None
        # -- fast-path state (see step_fast) --------------------------------
        #: Compiled (list-backed) stream and cursor.
        self._ops_list: List[tuple] = []
        self._ops_index = 0
        #: Duration/instruction table per distinct burst key (an int for a
        #: plain burst, a segment tuple for a fused one).
        self._burst_ps: Dict = {}
        #: Whether loads/stores hitting the local L1 may bypass the
        #: controller (set by prepare_fast_path).
        self._fast_loads = False
        self._fast_stores = False
        #: Fast/slow op tallies and optional per-subsystem wall time and
        #: slow-op counts (populated when profiling or tracing).
        self.fast_ops = 0
        self.slow_ops = 0
        self._profile = False
        self.subsystem_s: Dict[str, float] = {}
        self.subsystem_n: Dict[str, int] = {}

    def bind_stream(self, ops: List[tuple]) -> None:
        """Attach a compiled stream for fast-path execution."""
        self._ops_list = ops
        self._ops_index = 0
        self._ops = iter(ops)

    def prepare_fast_path(
        self,
        profile: bool = False,
        private_lines: FrozenSet[int] = frozenset(),
    ) -> None:
        """Decide which op classes may bypass the controller this run.

        An L1 hit may short-circuit only when the controller would charge
        it zero stall: the hit latency the controller bills (in the
        requester's clock domain) must equal the one the core folds into
        its base CPI (its own clock).  These are the same domain in every
        supported configuration, but the check keeps the fast path safe
        under exotic hand-built machines.  Loads additionally require the
        prefetcher off — a read hit on a prefetched line triggers stream
        chasing inside the controller.

        ``private_lines`` is this thread's provably-private line set
        (:func:`repro.sim.ops.classify_private_lines`): L1 hits on those
        lines resolve inline even past the scheduler horizon, since no
        peer transaction can ever touch them.
        """
        controller = self.controller
        same_domain = (
            controller.core_clocks[self.core_id].period_ps == self.clock.period_ps
        )
        self._fast_stores = same_domain
        self._fast_loads = same_domain and not controller.prefetch_next_line
        self._burst_ps.clear()
        self._profile = profile
        self.fast_ops = 0
        self.slow_ops = 0
        self.subsystem_s = {}
        self.subsystem_n = {}
        # Window-invariant state for step_fast, packed so each scheduler
        # pop pays one attribute access + tuple unpack instead of a
        # dozen chained lookups.  Only identity-stable objects belong
        # here: the L1's flat tag/state arrays and the burst-cost dict
        # are mutated in place, never replaced, while counters live on
        # objects that _reset_counters swaps out (so step_fast reads
        # those via self).
        l1 = controller.l1s[self.core_id]
        self._fast_frame = (
            self._ops_list,
            len(self._ops_list),
            self.core_id,
            l1._tags,
            l1._states,
            l1._assoc,
            private_lines,
            self._fast_loads,
            self._fast_stores,
            self._burst_ps,
            profile,
        )

    # -- op execution -------------------------------------------------------

    def _run_burst(self, n_instructions: int) -> None:
        timing = self.timing
        cycles = n_instructions * timing.base_cpi
        # Statistical I-cache misses each stall for an L2 hit.
        cycles += (
            n_instructions
            * timing.icache_miss_rate
            * self.controller.l2_hit_cycles
        )
        duration = self.clock.cycles_to_ps(cycles)
        self.time_ps += duration
        self.stats.busy_ps += duration
        self.stats.instructions += n_instructions
        self.stats.icache_accesses += n_instructions

    def _run_memory_op(self, byte_address: int, is_write: bool) -> None:
        now = self.time_ps
        if is_write:
            done = self.controller.write(self.core_id, byte_address, now)
            self.stats.stores += 1
        else:
            done = self.controller.read(self.core_id, byte_address, now)
            self.stats.loads += 1
        self.stats.instructions += 1
        self.stats.icache_accesses += 1
        stall = done - now
        hit_ps = self._hit_ps
        if stall <= hit_ps:
            # L1 hits are fully pipelined on the EV6; their cost is part
            # of the application's base CPI.
            stall = 0
        else:
            # The OoO window overlaps part of the miss latency.
            stall = int((stall - hit_ps) / self.timing.memory_parallelism)
        self.time_ps += stall
        self.stats.stall_mem_ps += stall

    def _run_critical(self, lock_id: int, n_instructions: int, address: int) -> None:
        grant = self.locks.acquire(lock_id, self.time_ps)
        waited = grant - self.time_ps
        self.time_ps = grant
        self.stats.sync_wait_ps += waited
        overhead = self.clock.cycles_to_ps(self.timing.lock_overhead_cycles)
        self.time_ps += overhead
        self.stats.busy_ps += overhead
        if n_instructions:
            self._run_burst(n_instructions)
        # The protected data: a read-modify-write that ping-pongs between
        # lock holders, generating the coherence traffic real critical
        # sections do.
        self._run_memory_op(address, is_write=True)
        self.locks.release(lock_id, self.time_ps)
        self.stats.critical_sections += 1

    def step(self) -> int:
        """Execute one operation; returns RUNNING, AT_BARRIER, or DONE.

        The reference interpreter.  Fused compute bursts (compiled
        streams) are executed segment by segment, so the reference path
        stays cycle-exact on compiled input too.
        """
        op = next(self._ops, None)
        if op is None:
            self.stats.end_time_ps = self.time_ps
            return DONE
        kind = op[0]
        if kind == OP_COMPUTE:
            if len(op) > 2:
                for segment in op[2]:
                    self._run_burst(segment)
            else:
                self._run_burst(op[1])
            return RUNNING
        if kind == OP_LOAD:
            self._run_memory_op(op[1], is_write=False)
            return RUNNING
        if kind == OP_STORE:
            self._run_memory_op(op[1], is_write=True)
            return RUNNING
        if kind == OP_BARRIER:
            self.pending_barrier = op[1]
            return AT_BARRIER
        if kind == OP_CRITICAL:
            self._run_critical(op[1], op[2], op[3])
            return RUNNING
        raise ConfigurationError(f"unknown op kind {kind}")

    # -- fast path -----------------------------------------------------------

    def _burst_cost(self, op: tuple) -> Tuple[int, int, int]:
        """(duration_ps, instructions, source_ops) of one compute op.

        Replicates :meth:`_run_burst`'s arithmetic per segment so a fused
        burst costs exactly the sum of interpreting its segments — for
        any clock period and core timing; cached per distinct burst
        shape (the generator reuses a handful).
        """
        timing = self.timing
        l2_hit_cycles = self.controller.l2_hit_cycles
        cycles_to_ps = self.clock.cycles_to_ps
        segments = op[2] if len(op) > 2 else (op[1],)
        duration = 0
        for n_instructions in segments:
            cycles = n_instructions * timing.base_cpi
            cycles += n_instructions * timing.icache_miss_rate * l2_hit_cycles
            duration += cycles_to_ps(cycles)
        return duration, sum(segments), len(segments)

    def step_fast(self, next_time, next_id: int) -> int:
        """Execute ops from the compiled stream until a scheduling point.

        ``(next_time, next_id)`` is the scheduler heap's top key after
        this core was popped — the virtual time at which another core
        acts next.  The *safe-horizon* rule: any op touching state
        another core can observe or mutate (shared-visible loads/stores
        — even L1 hits, since a peer's miss can invalidate or downgrade
        our lines — and critical sections) executes only while this
        core's ``(time_ps, core_id)`` key is still below that heap key,
        i.e. exactly while the reference scheduler would keep popping
        this core anyway.  L1 hits on *provably private* lines
        (classified at compile time: touched by exactly one thread
        across the whole workload) are exempt — no peer transaction can
        ever observe or mutate them, their inline effects (own-set LRU
        reorder, silent E->M, commutative counter increments) commute
        with every peer action, so they resolve inline regardless of
        heap position and only the remaining shared-visible ops yield
        to the horizon.  Within the horizon, shared-visible L1 hits in
        a suitable MESI state also resolve inline (flat-array probe,
        move-to-front on commit, batched stat deltas) and anything else
        runs through the reference machinery; past it, the core
        re-enters the heap and waits its turn.  Compute bursts touch
        only private state and run unconditionally; barrier
        registration is order-insensitive (the release is a max over
        frozen arrival times).  This makes the fast path's interleaving
        of *shared* state mutations identical to the reference
        interpreter's, hence bitwise-identical counters.  Returns
        RUNNING, AT_BARRIER, or DONE.
        """
        (
            ops,
            n_ops,
            core_id,
            tags,
            states,
            assoc,
            private,
            fast_loads,
            fast_stores,
            burst_ps,
            profile,
        ) = self._fast_frame
        i = self._ops_index
        t = self.time_ps
        # Batched stat deltas.  Inline-committed loads/stores are each
        # one instruction, one L1 hit, and one fast op, so only the
        # load/store tallies are kept per-commit; the rest is derived at
        # sync points.  Compute bursts accumulate separately.
        burst_instr_d = 0
        burst_fast_d = 0
        busy_d = 0
        loads_d = 0
        stores_d = 0
        # Whether this core still leads the reference pop order.  The
        # heap-key comparison is loop-invariant while t stands still,
        # and inline commits never move t — only compute bursts and
        # slow ops do — so one boolean carries the horizon state
        # between them.  (t == next_time with core_id == next_id is
        # impossible: each core has at most one heap entry, and this
        # one was just popped.)
        lead = t < next_time or (t == next_time and core_id < next_id)
        while i < n_ops:
            op = ops[i]
            kind = op[0]
            if kind == OP_COMPUTE:
                # op[-1] is the burst key: the instruction count of a
                # plain 2-tuple, the segment tuple of a fused op (an int
                # never equals a tuple, so the keyspaces cannot collide).
                cost = burst_ps.get(op[-1])
                if cost is None:
                    cost = self._burst_cost(op)
                    burst_ps[op[-1]] = cost
                t += cost[0]
                busy_d += cost[0]
                burst_instr_d += cost[1]
                burst_fast_d += cost[2]
                i += 1
                lead = t < next_time or (t == next_time and core_id < next_id)
                continue
            if kind == OP_LOAD:
                if fast_loads:
                    # Mutation-free probe first: a broken-out op is later
                    # replayed through lookup(), which does the LRU move.
                    # Line and flat set base are geometry-resolved at
                    # compile time (resolve_address_streams).
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
                    break
                is_write = False
            elif kind == OP_STORE:
                if fast_stores:
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
                    break
                is_write = True
            elif kind == OP_BARRIER:
                # Order-insensitive registration: may complete the batch.
                i += 1
                self._ops_index = i
                mem_d = loads_d + stores_d
                if mem_d or burst_fast_d:
                    self._sync_deltas(
                        t,
                        burst_instr_d + mem_d,
                        busy_d,
                        loads_d,
                        stores_d,
                        mem_d,
                        burst_fast_d + mem_d,
                    )
                self.pending_barrier = op[1]
                return AT_BARRIER
            elif kind == OP_CRITICAL:
                # Lock-table traffic is always shared-visible.
                if not lead:
                    break
            else:
                raise ConfigurationError(f"unknown op kind {kind}")
            # A slow op (miss, upgrade, critical section) inside the
            # horizon: the reference machinery runs it here, at exactly
            # the scheduler position the reference interpreter uses.
            # Zero deltas imply t == self.time_ps (only compute bursts
            # move t between syncs), so skipping the sync is safe.
            mem_d = loads_d + stores_d
            if mem_d or burst_fast_d:
                self._sync_deltas(
                    t,
                    burst_instr_d + mem_d,
                    busy_d,
                    loads_d,
                    stores_d,
                    mem_d,
                    burst_fast_d + mem_d,
                )
                burst_instr_d = busy_d = loads_d = stores_d = burst_fast_d = 0
            if profile:
                # repro: allow[DET-WALLCLOCK] host-side profiling timer; never feeds simulated state
                started = time.perf_counter()
            if kind == OP_CRITICAL:
                self._run_critical(op[1], op[2], op[3])
                name = "critical"
            else:
                self._run_memory_op(op[1], is_write)
                name = "memory"
            if profile:
                # repro: allow[DET-WALLCLOCK] host-side profiling timer; never feeds simulated state
                elapsed = time.perf_counter() - started
                self.subsystem_s[name] = self.subsystem_s.get(name, 0.0) + elapsed
                self.subsystem_n[name] = self.subsystem_n.get(name, 0) + 1
            self.slow_ops += 1
            i += 1
            t = self.time_ps
            lead = t < next_time or (t == next_time and core_id < next_id)

        self._ops_index = i
        mem_d = loads_d + stores_d
        if mem_d or burst_fast_d:
            self._sync_deltas(
                t,
                burst_instr_d + mem_d,
                busy_d,
                loads_d,
                stores_d,
                mem_d,
                burst_fast_d + mem_d,
            )
        if i >= n_ops:
            self.stats.end_time_ps = self.time_ps
            return DONE
        return RUNNING

    def _sync_deltas(
        self,
        t: int,
        instr_d: int,
        busy_d: int,
        loads_d: int,
        stores_d: int,
        hits_d: int,
        fast_d: int,
    ) -> None:
        """Write batched fast-path deltas back to the shared counters."""
        self.time_ps = t
        if fast_d:
            stats = self.stats
            stats.instructions += instr_d
            stats.icache_accesses += instr_d
            stats.busy_ps += busy_d
            stats.loads += loads_d
            stats.stores += stores_d
            if hits_d:
                self.controller.stats.l1_hits += hits_d
                self.controller.l1s[self.core_id].hits += hits_d
            self.fast_ops += fast_d
