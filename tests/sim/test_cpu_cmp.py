"""Tests for the core timing model and the top-level CMP scheduler."""

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import BusConfig, CacheConfig, ChipMultiprocessor, CMPConfig
from repro.sim.clock import ClockDomain
from repro.sim.config import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.sim.cpu import CoreTimingConfig


def run(threads, config=None, timing=None, warmup=0):
    chip = ChipMultiprocessor(config or CMPConfig(n_cores=16))
    return chip.run(threads, timing or CoreTimingConfig(), warmup_barriers=warmup)


class TestCoreTimingConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CoreTimingConfig(base_cpi=0.0)
        with pytest.raises(ConfigurationError):
            CoreTimingConfig(icache_miss_rate=1.5)
        with pytest.raises(ConfigurationError):
            CoreTimingConfig(memory_parallelism=0.5)


class TestComputeTiming:
    def test_compute_burst_duration(self):
        timing = CoreTimingConfig(base_cpi=1.0, icache_miss_rate=0.0)
        result = run([[(OP_COMPUTE, 1000)]], timing=timing)
        clock = ClockDomain(result.config.frequency_hz)
        assert result.execution_time_ps == clock.cycles_to_ps(1000)
        assert result.total_instructions == 1000

    def test_cpi_scales_duration(self):
        slow = run([[(OP_COMPUTE, 1000)]], timing=CoreTimingConfig(base_cpi=2.0, icache_miss_rate=0.0))
        fast = run([[(OP_COMPUTE, 1000)]], timing=CoreTimingConfig(base_cpi=0.5, icache_miss_rate=0.0))
        assert slow.execution_time_ps == 4 * fast.execution_time_ps

    def test_icache_misses_add_stall(self):
        clean = run([[(OP_COMPUTE, 10_000)]], timing=CoreTimingConfig(icache_miss_rate=0.0))
        missy = run([[(OP_COMPUTE, 10_000)]], timing=CoreTimingConfig(icache_miss_rate=0.01))
        assert missy.execution_time_ps > clean.execution_time_ps

    def test_dvfs_slows_compute(self):
        config_slow = CMPConfig(frequency_hz=1.6e9, voltage=0.8)
        fast = run([[(OP_COMPUTE, 10_000)]])
        slow = run([[(OP_COMPUTE, 10_000)]], config=config_slow)
        assert slow.execution_time_ps == pytest.approx(2 * fast.execution_time_ps, rel=0.01)


class TestMemoryTiming:
    def test_memory_bound_thread_slower(self):
        compute = [(OP_COMPUTE, 100)] * 50
        # Strided loads over a large region: mostly misses to memory.
        memory = [(OP_LOAD, i * 4096) for i in range(50)]
        t_compute = run([compute]).execution_time_ps
        t_memory = run([memory]).execution_time_ps
        assert t_memory > t_compute

    def test_memory_stall_fraction_reported(self):
        memory = [(OP_LOAD, i * 4096) for i in range(100)]
        result = run([memory])
        assert result.memory_stall_fraction() > 0.5

    def test_stores_counted(self):
        result = run([[(OP_STORE, 64), (OP_LOAD, 128)]])
        assert result.core_stats[0].stores == 1
        assert result.core_stats[0].loads == 1

    def test_dvfs_narrows_memory_gap(self):
        # The Section 4.1 anomaly: memory work loses fewer cycles at low f.
        memory = [(OP_LOAD, i * 4096) for i in range(200)]
        fast = run([list(memory)])
        slow = run([list(memory)], config=CMPConfig(frequency_hz=200e6, voltage=0.62))
        ratio = slow.execution_time_ps / fast.execution_time_ps
        assert ratio < 16.0  # far less than the 16x clock slowdown
        assert ratio < 3.0


class TestSynchronisation:
    def test_barrier_aligns_threads(self):
        threads = [
            [(OP_COMPUTE, 100), (OP_BARRIER, 0), (OP_COMPUTE, 100)],
            [(OP_COMPUTE, 10_000), (OP_BARRIER, 0), (OP_COMPUTE, 100)],
        ]
        result = run(threads)
        fast, slow = result.core_stats
        # The fast thread waited for the slow one.
        assert fast.sync_wait_ps > 0
        assert result.barriers == 1

    def test_unbalanced_barrier_deadlocks_cleanly(self):
        threads = [
            [(OP_BARRIER, 0)],
            [(OP_COMPUTE, 10)],  # never reaches the barrier
        ]
        with pytest.raises(SimulationError, match="deadlock"):
            run(threads)

    def test_critical_sections_serialise(self):
        section = (OP_CRITICAL, 7, 1000, 0x999000)
        threads = [[section] for _ in range(4)]
        result = run(threads)
        assert result.lock_acquires == 4
        assert result.lock_contended >= 2
        # Four serialised 1000-instruction sections take at least 4x one.
        single = run([[section]])
        assert result.execution_time_ps > 3 * single.execution_time_ps

    def test_distinct_locks_do_not_serialise(self):
        threads = [[(OP_CRITICAL, i, 1000, 0x999000 + 4096 * i)] for i in range(4)]
        result = run(threads)
        assert result.lock_contended == 0


class TestScheduler:
    def test_thread_count_validation(self):
        with pytest.raises(ConfigurationError):
            run([])
        with pytest.raises(ConfigurationError):
            run([[(OP_COMPUTE, 1)]] * 17)

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            run([[(99, 0)]])

    def test_execution_time_is_last_finisher(self):
        threads = [
            [(OP_COMPUTE, 100)],
            [(OP_COMPUTE, 50_000)],
        ]
        result = run(threads)
        assert result.execution_time_ps == max(
            s.end_time_ps for s in result.core_stats
        )

    def test_determinism(self):
        def threads():
            return [
                [(OP_COMPUTE, 50), (OP_LOAD, i * 1000 + j * 64)]
                for i, j in ((0, 1), (1, 2))
            ]

        a = run(threads())
        b = run(threads())
        assert a.execution_time_ps == b.execution_time_ps
        assert a.coherence.l1_misses == b.coherence.l1_misses


class TestWarmup:
    def test_warmup_excluded_from_time(self):
        threads = [
            [(OP_COMPUTE, 10_000), (OP_BARRIER, 0), (OP_COMPUTE, 1000)],
        ]
        warm = run(threads, warmup=1)
        clock = ClockDomain(warm.config.frequency_hz)
        # Only the post-barrier 1000 instructions are measured.
        expected = clock.cycles_to_ps(1000 * 0.8)
        assert warm.execution_time_ps == pytest.approx(expected, rel=0.02)

    def test_warmup_resets_counters(self):
        threads = [
            [(OP_LOAD, 0), (OP_BARRIER, 0), (OP_COMPUTE, 100)],
        ]
        warm = run(threads, warmup=1)
        assert warm.core_stats[0].loads == 0
        assert warm.total_instructions == 100

    def test_warmup_keeps_caches_warm(self):
        threads = [
            [(OP_LOAD, 0x5000), (OP_BARRIER, 0), (OP_LOAD, 0x5000)],
        ]
        warm = run(threads, warmup=1)
        # The measured load hits thanks to the warmup access.
        assert warm.coherence.l1_hits == 1
        assert warm.coherence.l1_misses == 0


class TestCMPConfig:
    def test_with_operating_point(self):
        # Non-default fields, so a field the copy drops shows.
        base = CMPConfig(
            n_cores=4, l2_hit_cycles=20, bus_config=BusConfig(data_cycles=8)
        )
        scaled = base.with_operating_point(1.6e9, 0.8)
        assert (scaled.frequency_hz, scaled.voltage) == (1.6e9, 0.8)
        for f in fields(CMPConfig):
            if f.name not in ("frequency_hz", "voltage"):
                assert getattr(scaled, f.name) == getattr(base, f.name), f.name

    def test_defaults_are_the_table_1_machine(self):
        config = CMPConfig()
        assert (config.n_cores, config.frequency_hz, config.voltage) == (16, 3.2e9, 1.1)
        assert config.l1_config == CacheConfig(
            capacity_bytes=64 * 1024, line_bytes=64, associativity=2
        )
        assert config.l1_hit_cycles == 2
        assert config.l2_config == CacheConfig(
            capacity_bytes=4 * 1024 * 1024, line_bytes=128, associativity=8
        )
        assert config.l2_hit_cycles == 12
        assert config.memory_config.round_trip_ns == 75.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CMPConfig(n_cores=0)
        with pytest.raises(ConfigurationError):
            CMPConfig(frequency_hz=-1.0)

    def test_l2_lines_may_not_be_shorter_than_l1_lines(self):
        # Compiled loads and stores carry their L1 line's first byte, and
        # a miss maps it to an L2 line: exact only for longer L2 lines.
        l1 = CacheConfig(capacity_bytes=1024, line_bytes=64, associativity=2)
        with pytest.raises(ConfigurationError, match="shorter"):
            CMPConfig(
                l1_config=l1,
                l2_config=CacheConfig(
                    capacity_bytes=4096, line_bytes=32, associativity=4
                ),
            )
        for line_bytes in (64, 128):
            CMPConfig(
                l1_config=l1,
                l2_config=CacheConfig(
                    capacity_bytes=4096, line_bytes=line_bytes, associativity=4
                ),
            )


class TestLockTable:
    """Direct contention-accounting coverage for the shared lock table."""

    def test_uncontended_acquire_granted_immediately(self):
        from repro.sim.cpu import LockTable

        locks = LockTable()
        assert locks.acquire(1, 1000) == 1000
        assert locks.acquires == 1
        assert locks.contended_acquires == 0

    def test_contended_acquire_waits_until_release(self):
        from repro.sim.cpu import LockTable

        locks = LockTable()
        locks.acquire(1, 1000)
        locks.release(1, 5000)
        grant = locks.acquire(1, 2000)  # requested while held
        assert grant == 5000
        assert locks.acquires == 2
        assert locks.contended_acquires == 1

    def test_acquire_after_release_time_is_uncontended(self):
        from repro.sim.cpu import LockTable

        locks = LockTable()
        locks.acquire(1, 0)
        locks.release(1, 100)
        assert locks.acquire(1, 200) == 200
        assert locks.contended_acquires == 0

    def test_request_exactly_at_release_is_uncontended(self):
        from repro.sim.cpu import LockTable

        locks = LockTable()
        locks.acquire(1, 0)
        locks.release(1, 100)
        assert locks.acquire(1, 100) == 100
        assert locks.contended_acquires == 0

    def test_distinct_locks_never_contend(self):
        from repro.sim.cpu import LockTable

        locks = LockTable()
        locks.acquire(1, 0)
        locks.release(1, 10_000)
        assert locks.acquire(2, 5) == 5
        assert locks.contended_acquires == 0

    def test_contention_surfaces_in_simulation_result(self):
        threads = [
            [(OP_CRITICAL, 9, 1000, 0x100)],
            [(OP_CRITICAL, 9, 1000, 0x100)],
        ]
        result = run(threads, config=CMPConfig(n_cores=2))
        assert result.lock_acquires == 2
        assert result.lock_contended == 1
