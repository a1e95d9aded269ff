"""The shared snooping bus connecting L1s, the L2, and the memory port.

All cores share one split-transaction bus (Section 3.1).  The simulator
models it as a single serially-reusable resource: a transaction asks for
the bus at its issue time and is granted it no earlier than the bus's
previous release.  Because the scheduler advances cores in global time
order, first-come-first-served reservations are consistent.

Occupancy is charged in *chip cycles* (the bus lives in the chip's clock
domain and scales with DVFS), so bus contention — a major component of
parallel-efficiency loss at high core counts — shrinks in wall-clock
terms as the chip slows down, exactly like the real system.
"""

from __future__ import annotations

from repro.sim.clock import ClockDomain
from repro.sim.config import BusConfig


class SharedBus:
    """FIFO-occupancy model of the shared bus."""

    def __init__(self, config: BusConfig, clock: ClockDomain) -> None:
        self.config = config
        self.clock = clock
        #: Occupancy of an address-only and of a data-carrying
        #: transaction, in picoseconds.  The clock is fixed for a run,
        #: so both are computed once, each from its summed cycle count.
        self.address_ps = clock.cycles_to_ps(config.address_cycles)
        self.data_ps = clock.cycles_to_ps(config.address_cycles + config.data_cycles)
        #: Release time of the latest reservation.  The coherence
        #: controller's miss path inlines :meth:`acquire` over this and
        #: the counters below.
        self.free_at_ps = 0
        self.transactions = 0
        self.data_transfers = 0
        self.busy_ps = 0
        self.wait_ps = 0

    def acquire(self, now_ps: int, with_data: bool) -> tuple:
        """Reserve the bus for one transaction starting at ``now_ps``.

        Returns ``(grant_ps, release_ps)``: the requester owns the bus
        from grant to release.  ``with_data`` adds the data-phase
        occupancy (cache fills, writebacks); address-only transactions
        (upgrades/invalidations) occupy just the address phase.
        """
        if with_data:
            duration = self.data_ps
            self.data_transfers += 1
        else:
            duration = self.address_ps
        grant = max(now_ps, self.free_at_ps)
        release = grant + duration
        self.free_at_ps = release
        self.transactions += 1
        self.busy_ps += duration
        self.wait_ps += grant - now_ps
        return grant, release

    def utilisation(self, total_ps: int) -> float:
        """Fraction of elapsed time the bus was occupied."""
        return self.busy_ps / total_ps if total_ps > 0 else 0.0
