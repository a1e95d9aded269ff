"""Tests for clock domains, the shared bus, and the DRAM model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.bus import BusConfig, SharedBus
from repro.sim.clock import ClockDomain, ns_to_ps
from repro.sim.memory import MainMemory, MemoryConfig


class TestClockDomain:
    def test_period_at_3_2ghz(self):
        clock = ClockDomain(3.2e9)
        assert clock.period_ps == 312 or clock.period_ps == 313

    def test_cycles_round_trip(self):
        clock = ClockDomain(1e9)  # 1000 ps period
        assert clock.cycles_to_ps(10) == 10_000
        assert clock.ps_to_cycles(10_000) == pytest.approx(10.0)

    def test_dvfs_slows_cycles(self):
        fast = ClockDomain(3.2e9)
        slow = ClockDomain(200e6)
        assert slow.cycles_to_ps(100) > fast.cycles_to_ps(100)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClockDomain(0.0)

    def test_ns_to_ps(self):
        assert ns_to_ps(75.0) == 75_000


class TestSharedBus:
    def make_bus(self, frequency=3.2e9):
        return SharedBus(BusConfig(), ClockDomain(frequency))

    def test_uncontended_grant_is_immediate(self):
        bus = self.make_bus()
        grant, release = bus.acquire(1000, with_data=True)
        assert grant == 1000
        assert release > grant

    def test_back_to_back_serialised(self):
        bus = self.make_bus()
        _, release1 = bus.acquire(0, with_data=True)
        grant2, _ = bus.acquire(0, with_data=True)
        assert grant2 == release1

    def test_address_only_shorter_than_data(self):
        bus = self.make_bus()
        g1, r1 = bus.acquire(0, with_data=False)
        bus2 = self.make_bus()
        g2, r2 = bus2.acquire(0, with_data=True)
        assert (r1 - g1) < (r2 - g2)

    def test_idle_gap_not_charged(self):
        bus = self.make_bus()
        _, release = bus.acquire(0, with_data=True)
        grant, _ = bus.acquire(release + 10_000, with_data=True)
        assert grant == release + 10_000

    def test_occupancy_scales_with_dvfs(self):
        fast = self.make_bus(3.2e9)
        slow = self.make_bus(200e6)
        _, r_fast = fast.acquire(0, with_data=True)
        _, r_slow = slow.acquire(0, with_data=True)
        # 3.2 GHz / 200 MHz = 16x, up to picosecond period rounding.
        assert r_slow == pytest.approx(16 * r_fast, rel=0.01)

    def test_wait_accounting(self):
        bus = self.make_bus()
        bus.acquire(0, with_data=True)
        grant, _ = bus.acquire(0, with_data=True)
        assert bus.wait_ps == grant

    def test_utilisation(self):
        bus = self.make_bus()
        _, release = bus.acquire(0, with_data=True)
        assert bus.utilisation(release) == pytest.approx(1.0)
        assert bus.utilisation(2 * release) == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BusConfig(address_cycles=0)

    @given(times=st.lists(st.integers(min_value=0, max_value=10**9), min_size=2, max_size=50))
    @settings(max_examples=25)
    def test_grants_never_overlap(self, times):
        bus = self.make_bus()
        windows = []
        for t in sorted(times):
            windows.append(bus.acquire(t, with_data=True))
        for (g1, r1), (g2, r2) in zip(windows, windows[1:]):
            assert g2 >= r1


class TestMainMemory:
    def test_fixed_latency(self):
        memory = MainMemory()
        done = memory.access(0, line_addr=0)
        assert done == 75_000  # 75 ns in ps

    def test_latency_independent_of_issue_time(self):
        memory = MainMemory()
        assert memory.access(10_000, 1) == 10_000 + 75_000

    def test_bank_conflict_delays(self):
        config = MemoryConfig(n_banks=1, bank_busy_ns=12.0)
        memory = MainMemory(config)
        first = memory.access(0, 0)
        second = memory.access(0, 0)
        assert second == first + 12_000

    def test_different_banks_concurrent(self):
        config = MemoryConfig(n_banks=2)
        memory = MainMemory(config)
        assert memory.access(0, 0) == memory.access(0, 1)

    def test_request_counter(self):
        memory = MainMemory()
        memory.access(0, 0)
        memory.access(0, 1)
        assert memory.requests == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(round_trip_ns=0.0)
        with pytest.raises(ConfigurationError):
            MemoryConfig(n_banks=0)
