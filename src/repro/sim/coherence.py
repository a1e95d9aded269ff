"""The MESI snooping protocol over the shared bus (Section 3.1).

One :class:`MESIController` owns all per-core L1 data caches, the shared
L2, the bus, and the memory port, and serialises coherence transactions
through bus reservations.  A sharer map (per 64 B L1 line) plays the role
of the snoop results that a real bus collects in its address phase —
functionally identical to probing every cache, but O(1).

Latency composition of a load miss, matching the paper's architecture:

* bus arbitration + address/snoop phase,
* then one of: cache-to-cache transfer from a MODIFIED peer, an L2 hit,
  or an L2 miss extended by the 75 ns DRAM round trip (wall-clock, so its
  cycle cost shrinks under DVFS),
* plus the data phase already folded into the bus occupancy.

Write misses (BusRdX) invalidate all other sharers; write hits on SHARED
lines issue an address-only upgrade (BusUpgr).  Dirty evictions post
writebacks that occupy the bus but do not stall the core (write-buffer
semantics).  The L2 is inclusive in spirit; back-invalidation on L2
eviction is omitted (the 4 MB L2 dwarfs the L1s, making the case rare)
and recorded as a simplification in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.errors import SimulationError
from repro.sim.bus import SharedBus
from repro.sim.cache import Cache, EXCLUSIVE, MODIFIED, SHARED
from repro.sim.clock import ClockDomain
from repro.sim.memory import MainMemory


def mask_to_ids(mask: int) -> List[int]:
    """Core ids set in a sharer bitmask, ascending (tests/debug)."""
    ids: List[int] = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


@dataclass
class CoherenceStats:
    """Event counters for the whole coherence fabric."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    cache_to_cache: int = 0
    invalidations: int = 0
    upgrades: int = 0
    writebacks: int = 0
    memory_reads: int = 0
    prefetches: int = 0

    def l1_miss_rate(self) -> float:
        """L1 miss rate over all cores."""
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    def l2_miss_rate(self) -> float:
        """L2 miss rate over the requests that reached it."""
        total = self.l2_hits + self.l2_misses
        return self.l2_misses / total if total else 0.0

    @property
    def total_transactions(self) -> int:
        """Coherence-fabric transactions (the bus-traffic view of MESI)."""
        return (
            self.l1_misses
            + self.upgrades
            + self.invalidations
            + self.writebacks
            + self.cache_to_cache
            + self.prefetches
        )


class MESIController:
    """Coherence and memory-hierarchy timing for all cores."""

    def __init__(
        self,
        l1_caches: List[Cache],
        l2: Cache,
        bus: SharedBus,
        memory: MainMemory,
        clock: ClockDomain,
        l1_hit_cycles: int = 2,
        l2_hit_cycles: int = 12,
        cache_to_cache_cycles: int = 16,
        core_clocks: Optional[List[ClockDomain]] = None,
        prefetch_next_line: bool = False,
    ) -> None:
        self.l1s = l1_caches
        self.l2 = l2
        self.bus = bus
        self.memory = memory
        #: The uncore clock: bus, L2 and cache-to-cache latencies tick
        #: here.  With per-core DVFS the cores may run elsewhere.
        self.clock = clock
        self.l1_hit_cycles = l1_hit_cycles
        self.l2_hit_cycles = l2_hit_cycles
        self.cache_to_cache_cycles = cache_to_cache_cycles
        #: Per-core clocks (L1 hit latency ticks in the requester's
        #: domain); defaults to the uncore clock for global DVFS.
        self.core_clocks = core_clocks or [clock] * len(l1_caches)
        self._hit_ps = [
            c.cycles_to_ps(l1_hit_cycles) for c in self.core_clocks
        ]
        #: Stream prefetching (extension): a demand L1 read miss on the
        #: line sequentially after the core's previous miss is a detected
        #: stream — the next line is pulled into the L1 off the critical
        #: path (charged as interconnect/L2 traffic), and hits on
        #: prefetched lines keep the stream ahead of the consumer.
        #: Random misses never trigger, so irregular codes pay nothing.
        self.prefetch_next_line = prefetch_next_line
        self._last_miss_line: Dict[int, int] = {}
        self.stats = CoherenceStats()
        # Snoop filter: L1 line address -> bitmask of core ids holding
        # it (bit ``i`` set iff core ``i``'s L1 has the line).  Bitmask
        # iteration walks ascending core ids by construction, so snoop
        # order is deterministic without sorting, and add/drop/probe
        # allocate nothing.
        self._sharers: Dict[int, int] = {}
        # Lines brought in by the prefetcher and not yet demanded: a hit
        # on one of these keeps the stream running (chained prefetch).
        self._prefetched: Set[int] = set()

    def _l1_hit_ps(self, core_id: int) -> int:
        return self._hit_ps[core_id]

    # -- sharer-map helpers -------------------------------------------------

    def _add_sharer(self, line: int, core_id: int) -> None:
        sharers = self._sharers
        sharers[line] = sharers.get(line, 0) | (1 << core_id)

    def _drop_sharer(self, line: int, core_id: int) -> None:
        mask = self._sharers.get(line, 0) & ~(1 << core_id)
        if mask:
            self._sharers[line] = mask
        else:
            self._sharers.pop(line, None)

    def _other_sharers(self, line: int, core_id: int) -> int:
        """Bitmask of cores other than ``core_id`` holding ``line``."""
        return self._sharers.get(line, 0) & ~(1 << core_id)

    def sharer_ids(self, line: int) -> List[int]:
        """Core ids currently holding ``line`` (tests/debug)."""
        return mask_to_ids(self._sharers.get(line, 0))

    def _handle_l1_victim(self, core_id: int, victim, now_ps: int) -> None:
        """Bookkeeping (and bus traffic) for an L1 eviction."""
        if victim is None:
            return
        victim_line, victim_state = victim
        self._drop_sharer(victim_line, core_id)
        if victim_state == MODIFIED:
            # Posted writeback: occupies the interconnect from the write
            # buffer, but does not stall the core.
            self.bus.acquire(now_ps, with_data=True, route=victim_line)
            self.stats.writebacks += 1
            self._l2_mark_dirty(victim_line << self.l1s[core_id].config.line_shift)

    # -- L2 helpers ----------------------------------------------------------

    def _l2_mark_dirty(self, byte_address: int) -> None:
        line = self.l2.line_address(byte_address)
        if self.l2.probe(line) is not None:
            self.l2.set_state(line, MODIFIED)

    def _l2_fill(self, byte_address: int) -> None:
        line = self.l2.line_address(byte_address)
        victim = self.l2.insert(line, SHARED)
        if victim is not None and victim[1] == MODIFIED:
            self.stats.writebacks += 1

    def _fetch_from_l2_or_memory(self, grant_ps: int, byte_address: int) -> int:
        """Data source below the L1s: returns the data-ready time."""
        l2_line = self.l2.line_address(byte_address)
        l2_latency = self.clock.cycles_to_ps(self.l2_hit_cycles)
        if self.l2.lookup(l2_line) is not None:
            self.stats.l2_hits += 1
            return grant_ps + l2_latency
        self.stats.l2_misses += 1
        self.stats.memory_reads += 1
        ready = self.memory.access(grant_ps + l2_latency, l2_line)
        self._l2_fill(byte_address)
        return ready

    # -- public protocol entry points ----------------------------------------

    def read(self, core_id: int, byte_address: int, now_ps: int) -> int:
        """A load by ``core_id``; returns its completion time (ps)."""
        stats = self.stats
        l1 = self.l1s[core_id]
        line = l1.line_address(byte_address)
        state = l1.lookup(line)
        if state is not None:
            stats.l1_hits += 1
            done = now_ps + self._l1_hit_ps(core_id)
            if self.prefetch_next_line and line in self._prefetched:
                # First demand hit on a prefetched line: keep the
                # stream ahead of the consumer.
                self._prefetched.discard(line)
                self._prefetch(core_id, line + 1, done)
            return done

        stats.l1_misses += 1
        grant, _release = self.bus.acquire(now_ps, with_data=True, route=line)
        others = self._other_sharers(line, core_id)

        owner = self._find_modified_owner(line, others)
        if owner is not None:
            # Cache-to-cache transfer; owner downgrades to SHARED and the
            # dirty data is written through to the L2 (MOESI-free MESI).
            self.l1s[owner].set_state(line, SHARED)
            self._l2_mark_dirty(byte_address)
            stats.cache_to_cache += 1
            ready = grant + self.clock.cycles_to_ps(self.cache_to_cache_cycles)
            fill_state = SHARED
        else:
            # The snoop downgrades any EXCLUSIVE peer to SHARED; a stale E
            # would later upgrade to M silently while we hold a copy.
            # Bitmask iteration probes ascending core ids by construction.
            mask = others
            while mask:
                low = mask & -mask
                mask ^= low
                other = low.bit_length() - 1
                if self.l1s[other].probe(line) == EXCLUSIVE:
                    self.l1s[other].set_state(line, SHARED)
            ready = self._fetch_from_l2_or_memory(grant, byte_address)
            fill_state = SHARED if others else EXCLUSIVE

        self._handle_l1_victim(core_id, l1.insert(line, fill_state), grant)
        self._add_sharer(line, core_id)
        if self.prefetch_next_line:
            # Stream detection: two consecutive-line misses arm the
            # prefetcher; isolated (random) misses do not.
            if self._last_miss_line.get(core_id) == line - 1:
                self._prefetch(core_id, line + 1, ready)
            self._last_miss_line[core_id] = line
        return ready

    def write(self, core_id: int, byte_address: int, now_ps: int) -> int:
        """A store by ``core_id``; returns its completion time (ps)."""
        stats = self.stats
        l1 = self.l1s[core_id]
        line = l1.line_address(byte_address)
        state = l1.lookup(line)

        if state == MODIFIED:
            stats.l1_hits += 1
            return now_ps + self._l1_hit_ps(core_id)
        if state == EXCLUSIVE:
            # Silent E -> M upgrade.
            stats.l1_hits += 1
            l1.set_state(line, MODIFIED)
            return now_ps + self._l1_hit_ps(core_id)
        if state == SHARED:
            # BusUpgr: address-only transaction invalidating other copies.
            stats.l1_hits += 1
            grant, release = self.bus.acquire(now_ps, with_data=False, route=line)
            self._invalidate_others(line, core_id)
            l1.set_state(line, MODIFIED)
            stats.upgrades += 1
            return release

        # Write miss: BusRdX.
        stats.l1_misses += 1
        grant, _release = self.bus.acquire(now_ps, with_data=True, route=line)
        others = self._other_sharers(line, core_id)
        owner = self._find_modified_owner(line, others)
        if owner is not None:
            self.stats.cache_to_cache += 1
            ready = grant + self.clock.cycles_to_ps(self.cache_to_cache_cycles)
        else:
            ready = self._fetch_from_l2_or_memory(grant, byte_address)
        self._invalidate_others(line, core_id)
        self._handle_l1_victim(core_id, l1.insert(line, MODIFIED), grant)
        self._add_sharer(line, core_id)
        return ready

    def _prefetch(self, core_id: int, line: int, now_ps: int) -> None:
        """Pull ``line`` into the requester's L1 off the critical path.

        Conservative: only untouched lines (no sharers anywhere) are
        prefetched, so no coherence state is disturbed; the transfer
        occupies the interconnect and may read memory, but the demand
        access has already returned.
        """
        l1 = self.l1s[core_id]
        if l1.probe(line) is not None or line in self._sharers:
            return
        grant, _release = self.bus.acquire(now_ps, with_data=True, route=line)
        byte_address = line << l1.config.line_shift
        self._fetch_from_l2_or_memory(grant, byte_address)
        self._handle_l1_victim(core_id, l1.insert(line, EXCLUSIVE), grant)
        self._add_sharer(line, core_id)
        self._prefetched.add(line)
        self.stats.prefetches += 1

    # -- snoop actions ---------------------------------------------------------

    def _find_modified_owner(self, line: int, others: int) -> Optional[int]:
        # MESI allows at most one MODIFIED owner, so any probe order finds
        # the same core; bitmask iteration walks ascending ids anyway.
        mask = others
        while mask:
            low = mask & -mask
            mask ^= low
            other = low.bit_length() - 1
            if self.l1s[other].probe(line) == MODIFIED:
                return other
        return None

    def _invalidate_others(self, line: int, core_id: int) -> None:
        mask = self._other_sharers(line, core_id)
        while mask:
            low = mask & -mask
            mask ^= low
            other = low.bit_length() - 1
            state = self.l1s[other].invalidate(line)
            if state is None:
                raise SimulationError(
                    f"sharer map claims core {other} holds line {line:#x}"
                )
            if state == MODIFIED:
                self._l2_mark_dirty(line << self.l1s[other].config.line_shift)
            self._drop_sharer(line, other)
            self.stats.invalidations += 1
