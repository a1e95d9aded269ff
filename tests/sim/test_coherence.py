"""Tests for the MESI protocol controller."""


from types import SimpleNamespace

import pytest

from repro.harness.optimizer import frequency_ladder
from repro.sim.bus import BusConfig, SharedBus
from repro.sim.cache import Cache, CacheConfig, EXCLUSIVE, MODIFIED, SHARED
from repro.sim.clock import ClockDomain
from repro.sim.coherence import MESIController
from repro.sim.cpu import Core, CoreTimingConfig, LockTable
from repro.sim.memory import MainMemory
from repro.tech.technology import NODE_65NM, VFTable


def make_controller(n_cores=2, l1_kb=4, l2_kb=64, frequency_hz=3.2e9):
    clock = ClockDomain(frequency_hz)
    bus = SharedBus(BusConfig(), clock)
    memory = MainMemory()
    l1s = [
        Cache(CacheConfig(l1_kb * 1024, 64, 2)) for _ in range(n_cores)
    ]
    l2 = Cache(CacheConfig(l2_kb * 1024, 128, 8))
    return MESIController(l1s, l2, bus, memory, clock)


ADDRESS = 0x4_0000


class TestReadPath:
    def test_cold_read_fills_exclusive(self):
        ctrl = make_controller()
        done = ctrl.read(0, ADDRESS, 0)
        line = ctrl.l1s[0].line_address(ADDRESS)
        assert ctrl.l1s[0].probe(line) == EXCLUSIVE
        assert done > 0
        assert ctrl.stats.l1_misses == 1
        assert ctrl.stats.l2_misses == 1
        assert ctrl.stats.memory_reads == 1

    def test_second_read_hits(self):
        ctrl = make_controller()
        t1 = ctrl.read(0, ADDRESS, 0)
        t2 = ctrl.read(0, ADDRESS, t1)
        # A hit costs exactly the L1 hit latency.
        assert t2 - t1 == ctrl.clock.cycles_to_ps(ctrl.l1_hit_cycles)
        assert ctrl.stats.l1_hits == 1

    def test_read_after_peer_read_is_shared(self):
        ctrl = make_controller()
        ctrl.read(0, ADDRESS, 0)
        ctrl.read(1, ADDRESS, 100_000)
        line = ctrl.l1s[0].line_address(ADDRESS)
        assert ctrl.l1s[1].probe(line) == SHARED

    def test_l2_hit_faster_than_memory(self):
        ctrl = make_controller()
        t_memory = ctrl.read(0, ADDRESS, 0)  # cold: memory
        ctrl.l1s[0].invalidate(ctrl.l1s[0].line_address(ADDRESS))
        ctrl._drop_sharer(ctrl.l1s[0].line_address(ADDRESS), 0)
        start = 10_000_000
        t_l2 = ctrl.read(0, ADDRESS, start) - start
        assert t_l2 < t_memory

    def test_read_from_modified_peer_is_cache_to_cache(self):
        ctrl = make_controller()
        ctrl.write(0, ADDRESS, 0)
        before = ctrl.stats.cache_to_cache
        ctrl.read(1, ADDRESS, 1_000_000)
        assert ctrl.stats.cache_to_cache == before + 1
        line = ctrl.l1s[0].line_address(ADDRESS)
        # Owner downgraded to SHARED.
        assert ctrl.l1s[0].probe(line) == SHARED
        assert ctrl.l1s[1].probe(line) == SHARED


class TestWritePath:
    def test_cold_write_fills_modified(self):
        ctrl = make_controller()
        ctrl.write(0, ADDRESS, 0)
        line = ctrl.l1s[0].line_address(ADDRESS)
        assert ctrl.l1s[0].probe(line) == MODIFIED

    def test_write_hit_on_exclusive_is_silent_upgrade(self):
        ctrl = make_controller()
        ctrl.read(0, ADDRESS, 0)  # EXCLUSIVE
        transactions_before = ctrl.bus.transactions
        ctrl.write(0, ADDRESS, 1_000_000)
        line = ctrl.l1s[0].line_address(ADDRESS)
        assert ctrl.l1s[0].probe(line) == MODIFIED
        assert ctrl.bus.transactions == transactions_before  # no bus traffic

    def test_write_on_shared_upgrades_and_invalidates(self):
        ctrl = make_controller()
        ctrl.read(0, ADDRESS, 0)
        ctrl.read(1, ADDRESS, 100_000)  # both SHARED
        ctrl.write(0, ADDRESS, 1_000_000)
        line = ctrl.l1s[0].line_address(ADDRESS)
        assert ctrl.l1s[0].probe(line) == MODIFIED
        assert ctrl.l1s[1].probe(line) is None
        assert ctrl.stats.upgrades == 1
        assert ctrl.stats.invalidations == 1

    def test_write_miss_invalidates_modified_owner(self):
        ctrl = make_controller()
        ctrl.write(0, ADDRESS, 0)
        ctrl.write(1, ADDRESS, 1_000_000)
        line = ctrl.l1s[0].line_address(ADDRESS)
        assert ctrl.l1s[0].probe(line) is None
        assert ctrl.l1s[1].probe(line) == MODIFIED
        assert ctrl.stats.cache_to_cache == 1

    def test_write_ping_pong(self):
        ctrl = make_controller()
        t = 0
        for i in range(6):
            t = ctrl.write(i % 2, ADDRESS, t)
        # Each ownership change invalidates the other core once (after
        # the first two cold fills... first write is cold, rest c2c).
        assert ctrl.stats.cache_to_cache == 5


class TestEvictionsAndSharers:
    def test_dirty_eviction_writes_back(self):
        ctrl = make_controller(l1_kb=1)  # tiny L1: 16 lines, 2-way
        base = 0x10000
        ctrl.write(0, base, 0)
        # Walk enough conflicting lines to evict the dirty one.
        n_sets = ctrl.l1s[0].config.n_sets
        line_bytes = ctrl.l1s[0].config.line_bytes
        for i in range(1, 4):
            ctrl.read(0, base + i * n_sets * line_bytes, i * 1_000_000)
        assert ctrl.stats.writebacks >= 1

    def test_sharer_map_consistent_after_eviction(self):
        ctrl = make_controller(l1_kb=1)
        base = 0x10000
        n_sets = ctrl.l1s[0].config.n_sets
        line_bytes = ctrl.l1s[0].config.line_bytes
        addresses = [base + i * n_sets * line_bytes for i in range(8)]
        t = 0
        for addr in addresses:
            t = ctrl.read(0, addr, t)
        # Every line the sharer map claims core 0 holds must be resident.
        for line in ctrl._sharers:
            for holder in ctrl.sharer_ids(line):
                assert ctrl.l1s[holder].probe(line) is not None

    def test_l2_catches_l1_victim_reread(self):
        ctrl = make_controller(l1_kb=1)
        base = 0x10000
        n_sets = ctrl.l1s[0].config.n_sets
        line_bytes = ctrl.l1s[0].config.line_bytes
        t = 0
        addresses = [base + i * n_sets * line_bytes for i in range(8)]
        for addr in addresses:
            t = ctrl.read(0, addr, t) + 1000
        memory_before = ctrl.stats.memory_reads
        # Re-reading an evicted line should hit the (inclusive) L2.
        ctrl.read(0, addresses[0], t + 1_000_000)
        assert ctrl.stats.memory_reads == memory_before


class TestDVFSInteraction:
    def test_memory_cheaper_in_cycles_when_slow(self):
        # The paper's key mechanism: 75 ns costs 240 cycles at 3.2 GHz
        # but only 15 cycles at 200 MHz.
        fast = make_controller()
        t_fast = fast.read(0, ADDRESS, 0)

        slow = make_controller(frequency_hz=200e6)
        t_slow = slow.read(0, ADDRESS, 0)

        cycles_fast = fast.clock.ps_to_cycles(t_fast)
        cycles_slow = slow.clock.ps_to_cycles(t_slow)
        assert cycles_slow < cycles_fast


#: The paper's 16-point profiling ladder, 200 MHz to 3.2 GHz.
LADDER = frequency_ladder(
    SimpleNamespace(
        vf_table=VFTable.linear(NODE_65NM, f_min=200e6, f_max=3.2e9, step=200e6)
    )
)


class TestPrecomputedLatencies:
    """Every latency fixed when the machine is built equals
    ``cycles_to_ps`` of its summed cycle count in the chip clock."""

    def _machine(self, f_hz, n_cores):
        clock = ClockDomain(f_hz)
        l1s = [Cache(CacheConfig(4 * 1024, 64, 2)) for _ in range(n_cores)]
        ctrl = MESIController(
            l1s,
            Cache(CacheConfig(64 * 1024, 128, 8)),
            SharedBus(BusConfig(), clock),
            MainMemory(),
            clock,
        )
        timing = CoreTimingConfig(lock_overhead_cycles=37)
        cores = [
            Core(i, [], ctrl, clock, timing, LockTable()) for i in range(n_cores)
        ]
        return clock, ctrl, cores

    def _check(self, clock, ctrl, cores):
        bus = ctrl.bus
        config = bus.config
        assert bus.address_ps == clock.cycles_to_ps(config.address_cycles)
        assert bus.data_ps == clock.cycles_to_ps(
            config.address_cycles + config.data_cycles
        )
        assert ctrl._l2_ps == clock.cycles_to_ps(ctrl.l2_hit_cycles)
        assert ctrl._c2c_ps == clock.cycles_to_ps(ctrl.cache_to_cache_cycles)
        assert ctrl._hit_ps == clock.cycles_to_ps(ctrl.l1_hit_cycles)
        for core in cores:
            assert core._lock_ps == clock.cycles_to_ps(37)
            assert core._hit_ps == ctrl._hit_ps

    def test_ladder_has_sixteen_points(self):
        assert len(LADDER) == 16
        assert LADDER[0] == 200e6 and LADDER[-1] == 3.2e9

    @pytest.mark.parametrize("f_hz", LADDER)
    def test_global_dvfs(self, f_hz):
        self._check(*self._machine(f_hz, 2))

    def test_bus_transactions_occupy_the_precomputed_time(self):
        bus = SharedBus(BusConfig(), ClockDomain(1.4e9))
        grant, release = bus.acquire(0, with_data=True)
        assert release - grant == bus.data_ps
        grant, release = bus.acquire(release, with_data=False)
        assert release - grant == bus.address_ps
        assert bus.busy_ps == bus.data_ps + bus.address_ps
