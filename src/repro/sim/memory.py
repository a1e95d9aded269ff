"""Off-chip main memory with a fixed wall-clock latency.

Table 1 gives a 75 ns round trip.  Crucially this latency is in
*nanoseconds*, not chip cycles: when DVFS slows the chip clock, the same
75 ns costs fewer cycles, narrowing the processor-memory speed gap.  The
paper identifies this as the mechanism that lets memory-bound
applications (Ocean, Radix) gain actual speedup in Scenario I and scale
better in Scenario II.

A simple bank-occupancy model adds queueing when many cores miss at
once, which contributes to parallel-efficiency loss at high N.
"""

from __future__ import annotations

from repro.sim.clock import ns_to_ps
from repro.sim.config import MemoryConfig


class MainMemory:
    """Fixed-latency DRAM with per-bank occupancy."""

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        self._latency_ps = ns_to_ps(self.config.round_trip_ns)
        self._busy_ps = ns_to_ps(self.config.bank_busy_ns)
        self._bank_free_ps = [0] * self.config.n_banks
        self.requests = 0

    def access(self, now_ps: int, line_addr: int) -> int:
        """Issue a request at ``now_ps``; returns the completion time.

        The addressed bank may delay service if busy; the full round trip
        then applies from service start.
        """
        bank = line_addr % self.config.n_banks
        start = max(now_ps, self._bank_free_ps[bank])
        self._bank_free_ps[bank] = start + self._busy_ps
        self.requests += 1
        return start + self._latency_ps
