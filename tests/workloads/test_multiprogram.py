"""Tests for the multiprogrammed-workload baseline."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.config import OP_BARRIER, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.workloads import workload_by_name
from repro.workloads.base import WorkloadModel
from repro.workloads.multiprogram import MultiprogrammedWorkload, homogeneous_mix


def short(name, scale=0.05):
    return WorkloadModel(workload_by_name(name).spec.scaled(scale))


@pytest.fixture()
def mix():
    return MultiprogrammedWorkload([short("FMM"), short("Radix")])


class TestConstruction:
    def test_name_and_size(self, mix):
        assert mix.name == "mix(FMM+Radix)"
        assert mix.n_programs == 2
        assert mix.supports(2)
        assert not mix.supports(4)
        assert mix.supported_thread_counts((1, 2, 4)) == [2]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiprogrammedWorkload([])

    def test_per_core_timings(self, mix):
        timings = mix.core_timing()
        assert len(timings) == 2
        assert timings[0].base_cpi == short("FMM").core_timing().base_cpi
        assert timings[1].base_cpi == short("Radix").core_timing().base_cpi

    def test_homogeneous_mix_reseeds(self):
        mix = homogeneous_mix(short("Barnes"), 3)
        assert mix.n_programs == 3
        seeds = {m.spec.seed for m in mix.models}
        assert len(seeds) == 3


class TestStreams:
    def test_single_common_barrier(self, mix):
        for tid in range(2):
            barriers = [op for op in mix.thread_ops(tid, 2) if op[0] == OP_BARRIER]
            assert barriers == [(OP_BARRIER, 0)]

    def test_address_spaces_disjoint(self, mix):
        def addresses(tid):
            out = set()
            for op in mix.thread_ops(tid, 2):
                if op[0] in (OP_LOAD, OP_STORE):
                    out.add(op[1])
                elif op[0] == OP_CRITICAL:
                    out.add(op[3])
            return out

        assert not addresses(0) & addresses(1)

    def test_lock_ids_disjoint(self):
        mix = MultiprogrammedWorkload([short("Radiosity"), short("Radiosity")])
        def lock_ids(tid):
            return {
                op[1] for op in mix.thread_ops(tid, 2) if op[0] == OP_CRITICAL
            }
        ids0, ids1 = lock_ids(0), lock_ids(1)
        if ids0 and ids1:
            assert not ids0 & ids1

    def test_wrong_count_rejected(self, mix):
        with pytest.raises(WorkloadError):
            next(mix.thread_ops(0, 4))
        with pytest.raises(WorkloadError):
            next(mix.thread_ops(5, 2))


class TestSimulation:
    def test_mix_simulates(self, mix):
        chip = ChipMultiprocessor(CMPConfig())
        result = chip.run(
            [mix.thread_ops(t, 2) for t in range(2)],
            mix.core_timing(),
            warmup_barriers=mix.warmup_barriers,
        )
        assert result.execution_time_ps > 0
        # No sharing: zero coherence traffic between the programs.
        assert result.coherence.cache_to_cache == 0
        assert result.coherence.invalidations == 0

    def test_no_parallel_efficiency_loss(self):
        # A 4-copy mix's throughput per core stays near the solo run's
        # (only shared L2/bus/memory couple them).
        base_model = short("Water-Sp", scale=0.08)
        solo = ChipMultiprocessor(CMPConfig()).run(
            [MultiprogrammedWorkload([base_model]).thread_ops(0, 1)],
            [base_model.core_timing()],
            warmup_barriers=1,
        )
        mix = homogeneous_mix(base_model, 4)
        mixed = ChipMultiprocessor(CMPConfig()).run(
            [mix.thread_ops(t, 4) for t in range(4)],
            mix.core_timing(),
            warmup_barriers=1,
        )
        solo_rate = solo.total_instructions / solo.execution_time_s
        mixed_rate = mixed.total_instructions / mixed.execution_time_s
        # Aggregate throughput scales to ~4x (within contention losses).
        assert mixed_rate > 3.0 * solo_rate
