"""Property tests on the scheduler's time accounting.

Conservation laws the simulator must obey regardless of workload:

* per core, accounted time (busy + memory stalls + sync waits)
  never exceeds its end time, and covers it exactly for runs without
  untracked gaps;
* total instructions equal what the generator emitted;
* execution time equals the slowest core's end time.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.config import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE


def build_threads(seed: int, n_threads: int, n_phases: int):
    """Random but barrier-consistent thread programs."""
    rng = random.Random(seed)
    threads = [[] for _ in range(n_threads)]
    for phase in range(n_phases):
        for tid, ops in enumerate(threads):
            for _ in range(rng.randint(1, 6)):
                choice = rng.random()
                if choice < 0.45:
                    ops.append((OP_COMPUTE, rng.randint(10, 500)))
                elif choice < 0.75:
                    ops.append((OP_LOAD, rng.randrange(0, 1 << 20, 8)))
                elif choice < 0.9:
                    ops.append((OP_STORE, rng.randrange(0, 1 << 20, 8)))
                else:
                    ops.append(
                        (OP_CRITICAL, rng.randrange(4), rng.randint(5, 50),
                         0x900000 + rng.randrange(4) * 256)
                    )
            ops.append((OP_BARRIER, phase))
    return threads


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_threads=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_time_accounting_identity(seed, n_threads):
    threads = build_threads(seed, n_threads, n_phases=3)
    expected_instructions = sum(
        op[1] if op[0] == OP_COMPUTE else
        1 if op[0] in (OP_LOAD, OP_STORE) else
        (op[2] + 1) if op[0] == OP_CRITICAL else 0
        for ops in threads
        for op in ops
    )
    chip = ChipMultiprocessor(CMPConfig())
    result = chip.run(threads)

    assert result.total_instructions == expected_instructions
    assert result.execution_time_ps == max(
        s.end_time_ps for s in result.core_stats
    )
    for stats in result.core_stats:
        accounted = stats.busy_ps + stats.stall_mem_ps + stats.sync_wait_ps
        # Accounted time fully covers the core's lifetime (to rounding).
        assert abs(accounted - stats.end_time_ps) <= 64, (
            accounted,
            stats.end_time_ps,
        )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_lock_accounting(seed):
    threads = build_threads(seed, 4, n_phases=2)
    result = ChipMultiprocessor(CMPConfig()).run(threads)
    expected_acquires = sum(
        1 for ops in threads for op in ops if op[0] == OP_CRITICAL
    )
    assert result.lock_acquires == expected_acquires
    assert 0 <= result.lock_contended <= result.lock_acquires


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_barrier_count(seed):
    n_phases = 3
    threads = build_threads(seed, 3, n_phases=n_phases)
    result = ChipMultiprocessor(CMPConfig()).run(threads)
    assert result.barriers == n_phases
