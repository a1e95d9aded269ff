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
* the fast path (:func:`repro.sim.cmp._fast_loop`) — one loop over every
  core's *resolved* stream that charges this module's costs inline:
  compute bursts and loads/stores that hit the local L1 in a suitable
  MESI state resolve without the controller and run in batches between
  scheduler points.  Anything touching shared state (bus, locks,
  misses, upgrades) runs at exactly the scheduler position the reference
  interpreter would give it: a miss or an upgrade is one call to the
  controller entry point ``read``/``write`` would reach
  (:meth:`MESIController.miss`, :meth:`MESIController.upgrade`), and a
  critical section runs inline around that same store path.  That is
  what makes the two paths bitwise-identical (the equivalence argument
  is spelled out in docs/MODEL.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError
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

    def _burst_cost(self, n_instructions: int) -> Tuple[int, int]:
        """(duration_ps, instructions) of one compute burst.

        Replicates :meth:`_run_burst`'s arithmetic, so the fast path
        (:func:`repro.sim.cmp._fast_loop`) charges a burst exactly what
        the reference interpreter does; it memoizes the cost per
        distinct burst length (the generator reuses a handful).
        """
        timing = self.timing
        cycles = n_instructions * timing.base_cpi
        cycles += (
            n_instructions
            * timing.icache_miss_rate
            * self.controller.l2_hit_cycles
        )
        return self.clock.cycles_to_ps(cycles), n_instructions
