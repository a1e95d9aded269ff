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
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError
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

    def l1_miss_rate(self) -> float:
        """L1 miss rate over all cores."""
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0


class MESIController:
    """Coherence and memory-hierarchy timing for all cores.

    A protocol transaction is one call.  :meth:`read` and :meth:`write`
    look the line up in the requester's L1 and settle hits; a miss goes
    to :meth:`miss` and a store hit on a SHARED line to :meth:`upgrade`,
    each taking the already-resolved L1 line.  The reference
    interpreter reaches them through ``read``/``write``; the fast path
    (:meth:`repro.sim.cpu.Core.step_fast`) does its own L1 probe and
    calls them directly, so each transition has one implementation.
    """

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
    ) -> None:
        l1_config = l1_caches[0].config
        if any(l1.config != l1_config for l1 in l1_caches):
            raise ConfigurationError("every L1 must share one geometry")
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
        # The clocks are fixed for a run, so every on-chip latency is a
        # picosecond constant computed here once.
        self._hit_ps = [
            c.cycles_to_ps(l1_hit_cycles) for c in self.core_clocks
        ]
        self._l2_ps = clock.cycles_to_ps(l2_hit_cycles)
        self._c2c_ps = clock.cycles_to_ps(cache_to_cache_cycles)
        self.stats = CoherenceStats()
        # Snoop filter: L1 line address -> bitmask of core ids holding
        # it (bit ``i`` set iff core ``i``'s L1 has the line).  Bitmask
        # iteration walks ascending core ids by construction, so snoop
        # order is deterministic without sorting, and add/drop/probe
        # allocate nothing.
        self._sharers: Dict[int, int] = {}
        # Geometry and flat arrays for the inline probes.  The caches
        # mutate their arrays in place, so the references stay valid.
        self._l1_shift = l1_config.line_shift
        self._l1_sets = l1_config.n_sets
        self._l1_way_shift = l1_config.way_shift
        self._l1_assoc = l1_config.associativity
        self._l1_tags = [l1._tags for l1 in l1_caches]
        self._l1_states = [l1._states for l1 in l1_caches]
        self._l2_shift = l2.config.line_shift
        self._l2_sets = l2.config.n_sets
        self._l2_way_shift = l2.config.way_shift
        self._l2_assoc = l2.config.associativity

    # -- sharer-map helpers -------------------------------------------------

    def _drop_sharer(self, line: int, core_id: int) -> None:
        mask = self._sharers.get(line, 0) & ~(1 << core_id)
        if mask:
            self._sharers[line] = mask
        else:
            self._sharers.pop(line, None)

    def sharer_ids(self, line: int) -> List[int]:
        """Core ids currently holding ``line`` (tests/debug)."""
        return mask_to_ids(self._sharers.get(line, 0))

    def _l2_mark_dirty(self, byte_address: int) -> None:
        l2 = self.l2
        w = l2._find(byte_address >> self._l2_shift)
        if w >= 0:
            l2._states[w] = MODIFIED

    # -- public protocol entry points ----------------------------------------

    def read(self, core_id: int, byte_address: int, now_ps: int) -> int:
        """A load by ``core_id``; returns its completion time (ps)."""
        line = byte_address >> self._l1_shift
        if self.l1s[core_id].lookup(line) is not None:
            self.stats.l1_hits += 1
            return now_ps + self._hit_ps[core_id]
        self.stats.l1_misses += 1
        base = (line % self._l1_sets) << self._l1_way_shift
        return self.miss(core_id, line, base, byte_address, now_ps, False)

    def write(self, core_id: int, byte_address: int, now_ps: int) -> int:
        """A store by ``core_id``; returns its completion time (ps)."""
        stats = self.stats
        l1 = self.l1s[core_id]
        line = byte_address >> self._l1_shift
        state = l1.lookup(line)
        base = (line % self._l1_sets) << self._l1_way_shift
        if state is None:
            stats.l1_misses += 1
            return self.miss(core_id, line, base, byte_address, now_ps, True)
        stats.l1_hits += 1
        if state == SHARED:
            # lookup() moved the line to its set's MRU way.
            return self.upgrade(core_id, line, base, now_ps)
        if state == EXCLUSIVE:
            # Silent E -> M upgrade.
            l1.set_state(line, MODIFIED)
        return now_ps + self._hit_ps[core_id]

    def upgrade(self, core_id: int, line: int, slot: int, now_ps: int) -> int:
        """BusUpgr: a store hit on a SHARED ``line``; returns the release time.

        ``slot`` is the line's flat index in the requester's L1.  The
        caller has counted the L1 hit.  The address-only transaction
        invalidates every other copy.
        """
        _grant, release = self.bus.acquire(now_ps, False)
        bit = 1 << core_id
        others = self._sharers.get(line, 0) & ~bit
        if others:
            self._invalidate(line, others)
            self._sharers[line] = bit
        self._l1_states[core_id][slot] = MODIFIED
        self.stats.upgrades += 1
        return release

    def miss(
        self,
        core_id: int,
        line: int,
        base: int,
        byte_address: int,
        now_ps: int,
        is_write: bool,
    ) -> int:
        """An L1 miss on ``line``: BusRd for a load, BusRdX for a store.

        ``base`` is the flat index of ``line``'s set in the requester's
        L1.  The caller has looked ``line`` up there and counted the
        miss.  Returns the data-ready time (ps).
        """
        stats = self.stats
        # Bus grant for the fill (SharedBus.acquire with data, inlined).
        bus = self.bus
        grant = bus.free_at_ps
        if grant < now_ps:
            grant = now_ps
        duration = bus.data_ps
        bus.free_at_ps = grant + duration
        bus.transactions += 1
        bus.data_transfers += 1
        bus.busy_ps += duration
        bus.wait_ps += grant - now_ps

        sharers = self._sharers
        bit = 1 << core_id
        others = sharers.get(line, 0) & ~bit
        owner = False
        if others:
            if is_write:
                # BusRdX invalidates every other copy; a MODIFIED one
                # supplies the data.
                owner = self._invalidate(line, others)
            else:
                # One snoop pass.  MESI lets at most one peer hold the
                # line MODIFIED or EXCLUSIVE (and then no other peer
                # holds it), so downgrading whatever exclusive copy the
                # pass meets is the whole address phase: an M owner
                # supplies the data, and a stale E would otherwise
                # upgrade to M silently while we hold a copy.
                end = base + self._l1_assoc
                mask = others
                while mask:
                    low = mask & -mask
                    mask ^= low
                    peer = low.bit_length() - 1
                    tags = self._l1_tags[peer]
                    w = base
                    while w < end and tags[w] != line:
                        w += 1
                    if w < end:
                        states = self._l1_states[peer]
                        state = states[w]
                        if state != SHARED:
                            states[w] = SHARED
                            if state == MODIFIED:
                                owner = True
                if owner:
                    # MOESI-free MESI: the dirty data is written through
                    # to the L2 as the owner downgrades.
                    self._l2_mark_dirty(byte_address)

        if owner:
            stats.cache_to_cache += 1
            ready = grant + self._c2c_ps
        else:
            # The L2 (Cache.lookup inlined), then DRAM on a miss.
            l2 = self.l2
            l2_line = byte_address >> self._l2_shift
            set_index = l2_line % self._l2_sets
            l2_base = set_index << self._l2_way_shift
            l2_tags = l2._tags
            w = l2_base
            end = l2_base + l2._fill[set_index]
            while w < end and l2_tags[w] != l2_line:
                w += 1
            ready = grant + self._l2_ps
            l2_states = l2._states
            if w < end:
                l2.hits += 1
                stats.l2_hits += 1
                state = l2_states[w]
            else:
                l2.misses += 1
                stats.l2_misses += 1
                stats.memory_reads += 1
                ready = self.memory.access(ready, l2_line)
                # Fill at the MRU way (Cache.insert for an absent line).
                state = SHARED
                if w - l2_base < self._l2_assoc:
                    l2._fill[set_index] += 1
                else:
                    w -= 1
                    l2.evictions += 1
                    if l2_states[w] == MODIFIED:
                        l2.writebacks += 1
                        stats.writebacks += 1
            while w > l2_base:
                l2_tags[w] = l2_tags[w - 1]
                l2_states[w] = l2_states[w - 1]
                w -= 1
            l2_tags[l2_base] = l2_line
            l2_states[l2_base] = state

        if is_write:
            fill_state = MODIFIED
            sharers[line] = bit
        else:
            fill_state = SHARED if others else EXCLUSIVE
            sharers[line] = others | bit
        # Fill the requester's L1 at the MRU way (Cache.insert for a
        # line known to be absent), evicting the LRU way of a full set.
        l1 = self.l1s[core_id]
        tags = self._l1_tags[core_id]
        states = self._l1_states[core_id]
        set_index = base >> self._l1_way_shift
        fill = l1._fill[set_index]
        w = base + fill
        if fill < self._l1_assoc:
            l1._fill[set_index] = fill + 1
        else:
            w -= 1
            victim_line = tags[w]
            l1.evictions += 1
            self._drop_sharer(victim_line, core_id)
            if states[w] == MODIFIED:
                l1.writebacks += 1
                # Posted writeback: occupies the interconnect from the
                # write buffer, but does not stall the core.
                bus.acquire(grant, True)
                stats.writebacks += 1
                self._l2_mark_dirty(victim_line << self._l1_shift)
        while w > base:
            tags[w] = tags[w - 1]
            states[w] = states[w - 1]
            w -= 1
        tags[base] = line
        states[base] = fill_state
        return ready

    # -- snoop actions ---------------------------------------------------------

    def _invalidate(self, line: int, others: int) -> bool:
        """Invalidate ``line`` in each core of ``others``.

        Returns whether one of them held it MODIFIED.  The caller
        rewrites the line's sharer entry.
        """
        dirty = False
        mask = others
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
                dirty = True
                self._l2_mark_dirty(line << self._l1_shift)
            self.stats.invalidations += 1
        return dirty
