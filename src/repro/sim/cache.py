"""Set-associative caches with LRU replacement and MESI line states.

The cache stores *line states*, not data — this is a timing/energy
simulator.  Lines are identified by their line address (byte address
shifted by the line-size log).  States follow MESI:

* ``MODIFIED`` — exclusive dirty,
* ``EXCLUSIVE`` — exclusive clean,
* ``SHARED`` — possibly replicated, clean,
* invalid lines are simply absent.

Storage layout (kernel v2)
--------------------------
Tags and states live in two flat preallocated lists indexed by
``(set_index << way_shift) | way`` where ``way_shift =
ceil(log2(associativity))``.  Within a set, valid ways form a compact
prefix ordered most- to least-recently used: a hit moves its line to
way 0 (move-to-front), an insert shifts the set down and places the
new line at way 0, and the replacement victim is the last valid way.
This is exactly the insertion-ordered-dict LRU the reference model
used (victim = oldest last-touch), but without any per-access
allocation, and the common case — a hit on the MRU way — costs one
index computation and one comparison.  Ways past the valid prefix
always hold the sentinel tag ``-1``, so full-width scans are safe.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.config import CacheConfig

# MESI states (invalid = not present).
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

STATE_NAMES = {SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}

#: Tag value marking an invalid way (line addresses are non-negative).
INVALID_TAG = -1


class Cache:
    """One set-associative cache array tracking MESI line states."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._line_shift = config.line_shift
        self._n_sets = config.n_sets
        self._assoc = config.associativity
        self._way_shift = config.way_shift
        # Flat tag/state arrays, one power-of-two-strided row per set.
        # Mutated strictly in place: the fast kernel loop captures
        # references to both lists in each core's frame, and the
        # coherence controller's inline probes and fills hold them too.
        rows = self._n_sets << self._way_shift
        self._tags: List[int] = [INVALID_TAG] * rows
        self._states: List[int] = [0] * rows
        #: Valid ways per set (the compact MRU-ordered prefix length).
        self._fill: List[int] = [0] * self._n_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def line_address(self, byte_address: int) -> int:
        """The line address containing ``byte_address``."""
        return byte_address >> self._line_shift

    def lookup(self, line_addr: int) -> Optional[int]:
        """State of the line (made MRU), or None if absent.  Counts hit/miss."""
        set_index = line_addr % self._n_sets
        base = set_index << self._way_shift
        tags = self._tags
        w = base
        end = base + self._fill[set_index]
        while w < end:
            if tags[w] == line_addr:
                states = self._states
                state = states[w]
                self.hits += 1
                if w != base:
                    while w > base:
                        tags[w] = tags[w - 1]
                        states[w] = states[w - 1]
                        w -= 1
                    tags[base] = line_addr
                    states[base] = state
                return state
            w += 1
        self.misses += 1
        return None

    def probe(self, line_addr: int) -> Optional[int]:
        """State of the line without touching LRU or counters (snoops)."""
        set_index = line_addr % self._n_sets
        base = set_index << self._way_shift
        tags = self._tags
        w = base
        end = base + self._fill[set_index]
        while w < end:
            if tags[w] == line_addr:
                return self._states[w]
            w += 1
        return None

    def _find(self, line_addr: int) -> int:
        """Flat index of a resident line, or -1."""
        set_index = line_addr % self._n_sets
        base = set_index << self._way_shift
        tags = self._tags
        for w in range(base, base + self._fill[set_index]):
            if tags[w] == line_addr:
                return w
        return -1

    def set_state(self, line_addr: int, state: int) -> None:
        """Change the state of a resident line (snoop downgrades etc.)."""
        w = self._find(line_addr)
        if w < 0:
            raise ConfigurationError(f"line {line_addr:#x} not resident")
        self._states[w] = state

    def invalidate(self, line_addr: int) -> Optional[int]:
        """Remove a line (snoop invalidation); returns its old state."""
        w = self._find(line_addr)
        if w < 0:
            return None
        set_index = line_addr % self._n_sets
        base = set_index << self._way_shift
        fill = self._fill[set_index]
        tags = self._tags
        states = self._states
        state = states[w]
        last = base + fill - 1
        while w < last:
            tags[w] = tags[w + 1]
            states[w] = states[w + 1]
            w += 1
        tags[last] = INVALID_TAG
        self._fill[set_index] = fill - 1
        return state

    def insert(self, line_addr: int, state: int) -> Optional[Tuple[int, int]]:
        """Insert a line at the MRU position, evicting LRU if the set is full.

        Returns ``(victim_line, victim_state)`` if something was evicted,
        else None.  A MODIFIED victim increments the writeback counter.
        """
        set_index = line_addr % self._n_sets
        base = set_index << self._way_shift
        fill = self._fill[set_index]
        tags = self._tags
        states = self._states
        w = base
        end = base + fill
        while w < end and tags[w] != line_addr:
            w += 1
        victim = None
        if w >= end:
            # Not resident: grow the prefix, or replace the LRU way.
            if fill >= self._assoc:
                w = end - 1
                victim_state = states[w]
                victim = (tags[w], victim_state)
                self.evictions += 1
                if victim_state == MODIFIED:
                    self.writebacks += 1
            else:
                w = end
                self._fill[set_index] = fill + 1
        while w > base:
            tags[w] = tags[w - 1]
            states[w] = states[w - 1]
            w -= 1
        tags[base] = line_addr
        states[base] = state
        return victim

    def set_entries(self, set_index: int) -> List[Tuple[int, int]]:
        """``(line, state)`` pairs of one set, MRU first (tests/debug)."""
        base = set_index << self._way_shift
        return [
            (self._tags[base + w], self._states[base + w])
            for w in range(self._fill[set_index])
        ]

    def entries(self) -> List[Tuple[int, int]]:
        """``(line, state)`` pairs of every resident line (tests/debug)."""
        out: List[Tuple[int, int]] = []
        for set_index in range(self._n_sets):
            out.extend(self.set_entries(set_index))
        return out

    def resident_lines(self) -> int:
        """Number of currently valid lines (for occupancy tests)."""
        return sum(self._fill)

    @property
    def accesses(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0 if never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0
