"""Tests for the workload specification and operation-stream generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.sim.config import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.workloads.base import WorkloadModel, WorkloadSpec

KB = 1024


def make_spec(**overrides):
    defaults = dict(
        name="test",
        problem_size="unit",
        total_instructions=20_000,
        mem_ratio=0.25,
        write_fraction=0.3,
        total_private_bytes=256 * KB,
        shared_bytes=64 * KB,
        shared_fraction=0.2,
        locality=0.9,
        hot_fraction=0.5,
        n_phases=4,
        seed=7,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_spec(mem_ratio=0.0)
        with pytest.raises(ConfigurationError):
            make_spec(locality=1.0)
        with pytest.raises(ConfigurationError):
            make_spec(hot_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            make_spec(serial_fraction=1.0)
        with pytest.raises(ConfigurationError):
            make_spec(imbalance=1.0)
        with pytest.raises(ConfigurationError):
            make_spec(sharing_pattern="ring")
        with pytest.raises(ConfigurationError):
            make_spec(total_instructions=2, n_phases=4)

    def test_scaled(self):
        spec = make_spec()
        half = spec.scaled(0.5)
        assert half.total_instructions == 10_000
        assert half.name == spec.name
        with pytest.raises(ConfigurationError):
            spec.scaled(0.0)


class TestSupports:
    def test_any_count_by_default(self):
        model = WorkloadModel(make_spec())
        assert model.supports(3)
        assert model.supports(16)
        assert not model.supports(0)

    def test_power_of_two_restriction(self):
        model = WorkloadModel(make_spec(power_of_two_only=True))
        assert model.supports(8)
        assert not model.supports(6)
        assert model.supported_thread_counts(range(1, 17)) == [1, 2, 4, 8, 16]

    def test_unsupported_count_raises(self):
        model = WorkloadModel(make_spec(power_of_two_only=True))
        with pytest.raises(WorkloadError):
            next(model.thread_ops(0, 6))

    def test_bad_thread_id(self):
        model = WorkloadModel(make_spec())
        with pytest.raises(WorkloadError):
            next(model.thread_ops(4, 4))


class TestStreamStructure:
    def test_deterministic(self):
        model = WorkloadModel(make_spec())
        a = list(model.thread_ops(0, 4))
        b = list(model.thread_ops(0, 4))
        assert a == b

    def test_threads_differ(self):
        model = WorkloadModel(make_spec())
        assert list(model.thread_ops(0, 4)) != list(model.thread_ops(1, 4))

    def test_barrier_sequences_identical_across_threads(self):
        model = WorkloadModel(make_spec(serial_fraction=0.05, n_phases=3))
        barrier_seqs = []
        for tid in range(4):
            seq = [op[1] for op in model.thread_ops(tid, 4) if op[0] == OP_BARRIER]
            barrier_seqs.append(seq)
        assert all(seq == barrier_seqs[0] for seq in barrier_seqs)
        # Barriers are consecutively numbered from 0.
        assert barrier_seqs[0] == list(range(len(barrier_seqs[0])))

    def test_serial_work_only_on_thread_zero(self):
        spec = make_spec(serial_fraction=0.2, n_phases=2)
        model = WorkloadModel(spec)

        def instructions(tid):
            total = 0
            for op in model.thread_ops(tid, 4):
                if op[0] == OP_COMPUTE:
                    total += op[1]
                elif op[0] in (OP_LOAD, OP_STORE):
                    total += 1
            return total

        assert instructions(0) > 1.5 * instructions(1)

    def test_total_work_roughly_spec(self):
        spec = make_spec()
        model = WorkloadModel(spec)
        total = 0
        for tid in range(4):
            for op in model.thread_ops(tid, 4):
                if op[0] == OP_COMPUTE:
                    total += op[1]
                elif op[0] in (OP_LOAD, OP_STORE):
                    total += 1
        # Within 2x of the spec (warmup adds roughly one extra phase plus
        # the hot-set sweep).
        assert spec.total_instructions * 0.8 < total < spec.total_instructions * 2.0

    def test_memory_ratio_roughly_spec(self):
        spec = make_spec(mem_ratio=0.25)
        model = WorkloadModel(spec)
        mem = compute = 0
        for op in model.thread_ops(0, 1):
            if op[0] == OP_COMPUTE:
                compute += op[1]
            elif op[0] in (OP_LOAD, OP_STORE):
                mem += 1
        observed = mem / (mem + compute)
        assert abs(observed - 0.25) < 0.08

    def test_write_fraction_roughly_spec(self):
        spec = make_spec(write_fraction=0.4, total_instructions=40_000)
        model = WorkloadModel(spec)
        loads = stores = 0
        for op in model.thread_ops(0, 1):
            if op[0] == OP_LOAD:
                loads += 1
            elif op[0] == OP_STORE:
                stores += 1
        assert abs(stores / (loads + stores) - 0.4) < 0.05

    def test_critical_sections_emitted(self):
        spec = make_spec(critical_sections_per_phase=5, n_phases=4)
        model = WorkloadModel(spec)
        criticals = [op for op in model.thread_ops(0, 2) if op[0] == OP_CRITICAL]
        assert len(criticals) >= 4 * 3  # close to 5 per phase
        for op in criticals:
            assert 0 <= op[1] < spec.n_locks

    def test_addresses_respect_thread_privacy(self):
        spec = make_spec(shared_fraction=0.0, hot_fraction=0.0)
        model = WorkloadModel(spec)
        addr0 = {op[1] for op in model.thread_ops(0, 2) if op[0] in (OP_LOAD, OP_STORE)}
        addr1 = {op[1] for op in model.thread_ops(1, 2) if op[0] in (OP_LOAD, OP_STORE)}
        assert not addr0 & addr1

    @given(n=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=5, deadline=None)
    def test_stream_finite_and_well_formed(self, n):
        model = WorkloadModel(make_spec(total_instructions=5_000))
        for tid in range(n):
            for op in model.thread_ops(tid, n):
                assert op[0] in (OP_COMPUTE, OP_LOAD, OP_STORE, OP_BARRIER, OP_CRITICAL)


class TestImbalance:
    def test_imbalance_spreads_work(self):
        spec = make_spec(imbalance=0.3, n_phases=1, serial_fraction=0.0)
        model = WorkloadModel(spec)

        def work(tid):
            return sum(
                op[1] if op[0] == OP_COMPUTE else 1
                for op in model.thread_ops(tid, 8)
                if op[0] in (OP_COMPUTE, OP_LOAD, OP_STORE)
            )

        works = [work(t) for t in range(8)]
        assert max(works) > min(works)

    def test_no_imbalance_means_equal_parallel_work(self):
        spec = make_spec(imbalance=0.0, serial_fraction=0.0, shared_fraction=0.0)
        model = WorkloadModel(spec)

        def work(tid):
            return sum(
                op[1] if op[0] == OP_COMPUTE else 1
                for op in model.thread_ops(tid, 4)
                if op[0] in (OP_COMPUTE, OP_LOAD, OP_STORE)
            )

        works = [work(t) for t in range(4)]
        assert max(works) - min(works) < 0.02 * max(works)
