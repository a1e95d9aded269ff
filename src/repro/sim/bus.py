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

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.clock import ClockDomain


@dataclass(frozen=True)
class BusConfig:
    """Bus occupancy parameters, in chip cycles.

    ``address_cycles`` covers arbitration plus the address/snoop phase
    that every transaction performs; ``data_cycles`` is the transfer time
    of one L2 line (128 B over a 32 B-wide data path = 4 cycles).
    """

    address_cycles: int = 2
    data_cycles: int = 4

    def __post_init__(self) -> None:
        if self.address_cycles < 1 or self.data_cycles < 0:
            raise ConfigurationError("bus cycle counts must be positive")


class SharedBus:
    """FIFO-occupancy model of the shared bus."""

    def __init__(self, config: BusConfig, clock: ClockDomain) -> None:
        self.config = config
        self.clock = clock
        self._free_at_ps = 0
        self.transactions = 0
        self.data_transfers = 0
        self.busy_ps = 0
        self.wait_ps = 0

    def acquire(self, now_ps: int, with_data: bool, route: int = 0) -> tuple:
        """Reserve the bus for one transaction starting at ``now_ps``.

        Returns ``(grant_ps, release_ps)``: the requester owns the bus
        from grant to release.  ``with_data`` adds the data-phase
        occupancy (cache fills, writebacks); address-only transactions
        (upgrades/invalidations) occupy just the address phase.
        ``route`` is ignored — a bus is one shared medium (the banked
        crossbar uses it to select a channel).
        """
        cycles = self.config.address_cycles
        if with_data:
            cycles += self.config.data_cycles
            self.data_transfers += 1
        duration = self.clock.cycles_to_ps(cycles)
        grant = max(now_ps, self._free_at_ps)
        release = grant + duration
        self._free_at_ps = release
        self.transactions += 1
        self.busy_ps += duration
        self.wait_ps += grant - now_ps
        return grant, release

    def utilisation(self, total_ps: int) -> float:
        """Fraction of elapsed time the bus was occupied."""
        return self.busy_ps / total_ps if total_ps > 0 else 0.0

    def wait_fraction(self, total_ps: int) -> float:
        """Arbitration wait accumulated per unit of elapsed time.

        Unlike :meth:`utilisation` this can exceed 1.0 — several cores
        can be queued on the same medium simultaneously — which is what
        makes it the sharper saturation signal for the sampled
        ``sim.bus_wait_fraction`` channel.
        """
        return self.wait_ps / total_ps if total_ps > 0 else 0.0

    def reset_timing(self) -> None:
        """Clear the reservation state (between simulation runs)."""
        self._free_at_ps = 0


class BankedCrossbar(SharedBus):
    """A banked point-to-point interconnect (extension).

    The paper's bus is the classic small-CMP choice; larger CMPs moved
    to crossbars and NoCs precisely because a single medium saturates.
    This model keeps the bus's address/data occupancy per transaction
    but provides ``n_channels`` independent channels, selected by the
    request's route (the L2 line address), so disjoint traffic proceeds
    in parallel.  Snoop ordering is preserved per line because a line
    always maps to the same channel.

    A ``port_cycles`` overhead models the crossbar's setup cost relative
    to the bus (arbitration across the switch).
    """

    def __init__(
        self,
        config: BusConfig,
        clock: ClockDomain,
        n_channels: int = 4,
        port_cycles: int = 1,
    ) -> None:
        if n_channels < 1:
            raise ConfigurationError("need at least one channel")
        if port_cycles < 0:
            raise ConfigurationError("port_cycles must be >= 0")
        super().__init__(config, clock)
        self.n_channels = n_channels
        self.port_cycles = port_cycles
        self._channel_free_ps = [0] * n_channels

    def acquire(self, now_ps: int, with_data: bool, route: int = 0) -> tuple:
        """Reserve one channel; disjoint routes do not contend."""
        cycles = self.config.address_cycles + self.port_cycles
        if with_data:
            cycles += self.config.data_cycles
            self.data_transfers += 1
        duration = self.clock.cycles_to_ps(cycles)
        channel = route % self.n_channels
        grant = max(now_ps, self._channel_free_ps[channel])
        release = grant + duration
        self._channel_free_ps[channel] = release
        self.transactions += 1
        self.busy_ps += duration
        self.wait_ps += grant - now_ps
        return grant, release

    def utilisation(self, total_ps: int) -> float:
        """Average occupancy across channels."""
        if total_ps <= 0:
            return 0.0
        return self.busy_ps / (total_ps * self.n_channels)

    def reset_timing(self) -> None:
        """Clear all channel reservations."""
        self._channel_free_ps = [0] * self.n_channels
