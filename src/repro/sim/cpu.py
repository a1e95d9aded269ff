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
  pop, every memory operation routed through the MESI controller's
  ``read``/``write``;
* :meth:`Core.step_fast` — the fast path over a *prepared* (list-backed)
  stream: compute bursts and loads/stores that hit the local L1 in a
  suitable MESI state are resolved inline — hoisted attribute lookups,
  precomputed burst durations, batched stat accumulation — and executed
  in batches between scheduler pops.  Anything touching shared state
  (bus, locks, misses, upgrades) runs at exactly the scheduler position
  the reference interpreter would give it: a miss or an upgrade is one
  call to the controller entry point ``read``/``write`` would reach
  (:meth:`MESIController.miss`, :meth:`MESIController.upgrade`), and a
  critical section runs inline around that same store path.  That is
  what makes the two paths bitwise-identical (the equivalence argument
  is spelled out in docs/MODEL.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.sim.clock import ClockDomain
from repro.sim.coherence import MESIController
from repro.sim.config import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_CRITICAL,
    OP_LOAD,
    OP_STORE,
    CoreTimingConfig,
)

# Core.step() statuses.
RUNNING = 0
AT_BARRIER = 1
DONE = 2


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
    end_time_ps: int = 0

    @property
    def total_active_ps(self) -> int:
        """Time the core was doing or waiting on work (not parked)."""
        return self.busy_ps + self.stall_mem_ps


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
        #: L1-hit latency and lock overhead in this core's clock, which
        #: is fixed for the run.
        self._hit_ps = clock.cycles_to_ps(controller.l1_hit_cycles)
        self._lock_ps = clock.cycles_to_ps(timing.lock_overhead_cycles)
        self.stats = CoreStats()
        #: Barrier index the core is waiting at (valid after AT_BARRIER).
        self.pending_barrier: Optional[int] = None
        # -- fast-path state (see step_fast) --------------------------------
        #: Prepared (list-backed) stream and cursor.
        self._ops_list: List[tuple] = []
        self._ops_index = 0
        #: (duration_ps, instructions) per distinct burst length.
        self._burst_ps: Dict[int, Tuple[int, int]] = {}
        #: Fast/slow op tallies and the per-subsystem slow-path wall time
        #: (timed only when ``prepare_fast_path(timed=True)``; written
        #: back once per ``step_fast`` call).
        self.fast_ops = 0
        self.slow_ops = 0
        self.subsystem_s: Dict[str, float] = {}

    def bind_stream(self, ops: List[tuple]) -> None:
        """Attach a prepared stream for fast-path execution."""
        self._ops_list = ops
        self._ops_index = 0
        self._ops = iter(ops)

    def prepare_fast_path(
        self,
        timed: bool = False,
        private_lines: FrozenSet[int] = frozenset(),
    ) -> None:
        """Reset the fast path's per-run state and pack its frame.

        L1 hits short-circuit the controller because the controller
        bills a hit in the same clock the core folds into its base CPI:
        ``ChipMultiprocessor.run`` hands each core and the controller
        the one chip clock, so a hit costs zero stall either way.

        ``private_lines`` is this thread's provably-private line set
        (:func:`repro.sim.ops.prepare_streams`): L1 hits on those
        lines resolve inline even past the scheduler horizon, since no
        peer transaction can ever touch them.
        """
        self._burst_ps.clear()
        self.fast_ops = 0
        self.slow_ops = 0
        self.subsystem_s = {}
        # Window-invariant state for step_fast, packed so each scheduler
        # pop pays one attribute access + tuple unpack instead of a
        # dozen chained lookups.  Only identity-stable objects belong
        # here: the L1 (its counters are reset in place), its flat
        # tag/state arrays, the burst-cost dict, the lock table and the
        # controller's entry points are never replaced, while the core's
        # and the controller's stats objects are swapped out by
        # _reset_counters (so step_fast reads those via self).
        controller = self.controller
        l1 = controller.l1s[self.core_id]
        l1_config = l1.config
        self._fast_frame = (
            self._ops_list,
            len(self._ops_list),
            self.core_id,
            l1,
            l1._tags,
            l1._states,
            l1._assoc,
            l1_config.line_shift,
            l1_config.n_sets,
            l1_config.way_shift,
            private_lines,
            self._burst_ps,
            timed,
            controller.miss,
            controller.upgrade,
            self.locks,
            self._hit_ps,
            self._lock_ps,
            self.timing.memory_parallelism,
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
        overhead = self._lock_ps
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

        The reference interpreter.
        """
        op = next(self._ops, None)
        if op is None:
            self.stats.end_time_ps = self.time_ps
            return DONE
        kind = op[0]
        if kind == OP_COMPUTE:
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

    def _burst_cost(self, n_instructions: int) -> Tuple[int, int]:
        """(duration_ps, instructions) of one compute burst.

        Replicates :meth:`_run_burst`'s arithmetic, so the fast path
        charges a burst exactly what the reference interpreter does;
        cached per distinct burst length (the generator reuses a
        handful).
        """
        timing = self.timing
        cycles = n_instructions * timing.base_cpi
        cycles += (
            n_instructions
            * timing.icache_miss_rate
            * self.controller.l2_hit_cycles
        )
        return self.clock.cycles_to_ps(cycles), n_instructions

    def step_fast(self, next_time, next_id: int) -> int:
        """Execute ops from the prepared stream until a scheduling point.

        ``(next_time, next_id)`` is the scheduler heap's top key after
        this core was popped — the virtual time at which another core
        acts next.  The *safe-horizon* rule: any op touching state
        another core can observe or mutate (shared-visible loads/stores
        — even L1 hits, since a peer's miss can invalidate or downgrade
        our lines — and critical sections) executes only while this
        core's ``(time_ps, core_id)`` key is still below that heap key,
        i.e. exactly while the reference scheduler would keep popping
        this core anyway.  L1 hits on *provably private* lines
        (classified before the run: touched by exactly one thread
        across the whole workload) are exempt — no peer transaction can
        ever observe or mutate them, their inline effects (own-set LRU
        reorder, silent E->M, commutative counter increments) commute
        with every peer action, so they resolve inline regardless of
        heap position and only the remaining shared-visible ops yield
        to the horizon.  Within the horizon, shared-visible L1 hits in
        a suitable MESI state also resolve inline (flat-array probe,
        move-to-front on commit, batched stat deltas); a miss or an
        upgrade is one controller call on the probed line, and a
        critical section runs inline around the same store path.  Past
        the horizon, the core re-enters the heap and waits its turn.  Compute bursts touch
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
            l1,
            tags,
            states,
            assoc,
            line_shift,
            n_sets,
            way_shift,
            private,
            burst_ps,
            timed,
            miss,
            upgrade,
            locks,
            hit_ps,
            lock_ps,
            mlp,
        ) = self._fast_frame
        i = self._ops_index
        t = self.time_ps
        # Batched stat deltas, written back once when the call returns.
        # Each inline-committed load/store is one instruction, one L1
        # hit and one fast op, and each slow op makes exactly one L1
        # access (a critical section makes its store), so only these
        # tallies are kept per op; the rest is derived on write-back.
        burst_instr_d = 0  # burst instructions, critical sections' too
        burst_fast_d = 0  # bursts resolved inline
        busy_d = 0
        loads_d = 0  # inline-committed loads
        stores_d = 0  # inline-committed stores
        slow_d = 0
        slow_loads_d = 0
        miss_d = 0
        stall_d = 0
        sync_d = 0
        critical_d = 0
        memory_s = 0.0
        critical_s = 0.0
        status = DONE
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
                cost = burst_ps.get(op[1])
                if cost is None:
                    cost = self._burst_cost(op[1])
                    burst_ps[op[1]] = cost
                t += cost[0]
                busy_d += cost[0]
                burst_instr_d += cost[1]
                burst_fast_d += 1
                i += 1
                lead = t < next_time or (t == next_time and core_id < next_id)
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
            elif kind == OP_BARRIER:
                # Order-insensitive registration: may complete the batch.
                i += 1
                self.pending_barrier = op[1]
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
                # _run_critical: the lock, its overhead, the burst from
                # the memo, then the protected read-modify-write store,
                # probed here like a prepared store.
                lock_id = op[1]
                grant = locks.acquire(lock_id, t)
                sync_d += grant - t
                t = grant + lock_ps
                busy_d += lock_ps
                n_instructions = op[2]
                if n_instructions:
                    cost = burst_ps.get(n_instructions)
                    if cost is None:
                        cost = self._burst_cost(n_instructions)
                        burst_ps[n_instructions] = cost
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
                    done = upgrade(core_id, line, base, t)
                else:
                    # Silent E -> M (or an M hit): no stall.
                    states[base] = MODIFIED
                    done = t
            else:
                done = miss(core_id, line, base, address, t, is_write)
                miss_d += 1
            # L1 hits are fully pipelined on the EV6 (their cost is part
            # of the base CPI); the OoO window overlaps part of a miss.
            stall = done - t
            if stall > hit_ps:
                stall = int((stall - hit_ps) / mlp)
                t += stall
                stall_d += stall
            slow_d += 1
            if kind == OP_CRITICAL:
                locks.release(lock_id, t)
                critical_d += 1
            elif not is_write:
                slow_loads_d += 1
            if timed:
                # repro: allow[DET-WALLCLOCK] host-side profiling timer; never feeds simulated state
                elapsed = time.perf_counter() - started
                if kind == OP_CRITICAL:
                    critical_s += elapsed
                else:
                    memory_s += elapsed
            i += 1
            lead = t < next_time or (t == next_time and core_id < next_id)

        self._ops_index = i
        self.time_ps = t
        mem_d = loads_d + stores_d
        if mem_d or burst_fast_d or slow_d:
            stats = self.stats
            instr_d = burst_instr_d + mem_d + slow_d
            stats.instructions += instr_d
            stats.icache_accesses += instr_d
            stats.busy_ps += busy_d
            stats.loads += loads_d + slow_loads_d
            stats.stores += stores_d + slow_d - slow_loads_d
            hits_d = mem_d + slow_d - miss_d
            if hits_d:
                self.controller.stats.l1_hits += hits_d
                l1.hits += hits_d
            self.fast_ops += burst_fast_d + mem_d
            if slow_d:
                if miss_d:
                    self.controller.stats.l1_misses += miss_d
                    l1.misses += miss_d
                stats.stall_mem_ps += stall_d
                stats.sync_wait_ps += sync_d
                stats.critical_sections += critical_d
                self.slow_ops += slow_d
                if timed:
                    seconds = self.subsystem_s
                    if critical_d < slow_d:
                        seconds["memory"] = seconds.get("memory", 0.0) + memory_s
                    if critical_d:
                        seconds["critical"] = (
                            seconds.get("critical", 0.0) + critical_s
                        )
        if status == DONE:
            self.stats.end_time_ps = t
        return status
