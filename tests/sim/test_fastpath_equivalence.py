"""The fast-path kernel's contract: bitwise-identical counters.

The fast kernel loop over resolved streams must reproduce every counter of
the reference interpreter (``Core.step`` over raw generator streams) —
not approximately, *identically*.  These tests run both kernels on the
same workloads across machine configurations and compare every field of
``SimulationResult``, ``CoreStats``, ``CoherenceStats``, the caches, the
bus, memory, locks, and barriers.
"""

from dataclasses import asdict

import pytest

from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.config import OP_BARRIER, OP_COMPUTE, OP_CRITICAL, OP_LOAD, OP_STORE
from repro.sim.ops import compile_workload
from repro.telemetry.trace import Tracer, set_tracer
from repro.workloads import SPLASH2, WorkloadModel
from repro.workloads.multiprogram import homogeneous_mix

#: Small but non-trivial run lengths: thousands of ops per thread.
SCALE = 0.05


def scaled(model, scale=SCALE):
    return WorkloadModel(model.spec.scaled(scale))


def counters(result):
    """Every simulated counter of one run, as one comparable value."""
    return {
        "execution_time_ps": result.execution_time_ps,
        "core_stats": [asdict(s) for s in result.core_stats],
        "coherence": asdict(result.coherence),
        "l1": [
            (c.hits, c.misses, c.evictions, c.writebacks)
            for c in result.l1_caches
        ],
        "l2": (
            result.l2.hits,
            result.l2.misses,
            result.l2.evictions,
            result.l2.writebacks,
        ),
        "bus": (
            result.bus.transactions,
            result.bus.data_transfers,
            result.bus.busy_ps,
            result.bus.wait_ps,
        ),
        "memory_requests": result.memory_requests,
        "locks": (result.lock_acquires, result.lock_contended),
        "barriers": result.barriers,
    }


def assert_equivalent(model, n, config):
    """Reference on raw generators vs fast path on compiled streams."""
    timing = model.core_timing()
    warmup = model.warmup_barriers
    reference = ChipMultiprocessor(config, fast_path=False).run(
        [model.thread_ops(t, n) for t in range(n)],
        timing,
        warmup_barriers=warmup,
    )
    compiled = compile_workload(model, n, cache=None)
    fast = ChipMultiprocessor(config, fast_path=True).run(
        compiled.program,
        timing,
        warmup_barriers=warmup,
    )
    assert counters(reference) == counters(fast)
    assert reference.kernel.total_ops == fast.kernel.total_ops
    return reference, fast


class TestAllBundledWorkloads:
    @pytest.mark.parametrize("model", SPLASH2, ids=lambda m: m.name)
    def test_identical_counters(self, model):
        assert_equivalent(scaled(model), 4, CMPConfig(n_cores=4))

    def test_multiprogrammed_mix(self):
        mix = homogeneous_mix(scaled(SPLASH2[0]), 4)
        assert_equivalent(mix, 4, CMPConfig(n_cores=4))

    @pytest.mark.parametrize("app", ("Cholesky", "Ocean"))
    def test_reference_on_compiled_program(self, app):
        # The reference interpreter reads only op[1] of a resolved op,
        # so it runs a compiled program exactly as the raw generators.
        model = scaled({m.name: m for m in SPLASH2}[app])
        config = CMPConfig(n_cores=4)
        reference, fast = assert_equivalent(model, 4, config)
        program = compile_workload(model, 4, cache=None).program
        resolved = ChipMultiprocessor(config, fast_path=False).run(
            program, model.core_timing(), warmup_barriers=model.warmup_barriers
        )
        assert counters(resolved) == counters(reference) == counters(fast)


class TestConfigurationMatrix:
    """One miss-heavy and one compute-heavy app across core counts and V/f."""

    APPS = ("Ocean", "FMM")

    def _model(self, name):
        by_name = {m.name: m for m in SPLASH2}
        return scaled(by_name[name])

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("n", (1, 4))
    @pytest.mark.parametrize(
        "f_hz,v", ((3.2e9, 1.1), (800e6, 0.8)), ids=("nominal", "scaled-vf")
    )
    def test_core_count_and_vf(self, app, n, f_hz, v):
        config = CMPConfig(n_cores=n, frequency_hz=f_hz, voltage=v)
        assert_equivalent(self._model(app), n, config)

    @pytest.mark.parametrize("app", ("Cholesky", "Radix"))
    def test_rounding_ladder_point(self, app):
        # 1.4 GHz is a ladder point whose clock period rounds (714.29 ps
        # to 714), so every precomputed latency carries that rounding;
        # Cholesky runs the critical-section path under it.
        config = CMPConfig(n_cores=4, frequency_hz=1.4e9, voltage=0.85)
        _reference, fast = assert_equivalent(self._model(app), 4, config)
        if app == "Cholesky":
            assert fast.lock_acquires > 0

    def test_contended_sharing_respects_safe_horizon(self):
        # Regression case: Radix at a larger scale produces cross-core
        # invalidation races in which a peer's write miss lands between
        # a core's batched L1 hits in virtual time.  An unbounded batch
        # executes those hits too early and diverges; the safe-horizon
        # rule in the fast loop must keep the interleaving exact.
        by_name = {m.name: m for m in SPLASH2}
        model = scaled(by_name["Radix"], 0.25)
        assert_equivalent(model, 4, CMPConfig(n_cores=4))


class TestHandAuthoredStreams:
    """Adjacent compute bursts (never emitted by the generator) run as
    one op each on both kernels."""

    def _threads(self):
        shared = 0x1000
        t0 = [
            (OP_COMPUTE, 10),
            (OP_COMPUTE, 25),
            (OP_COMPUTE, 7),
            (OP_STORE, shared),
            (OP_BARRIER, 0),
            (OP_LOAD, shared),
            (OP_CRITICAL, 1, 12, 0x9000),
            (OP_COMPUTE, 3),
            (OP_COMPUTE, 3),
        ]
        t1 = [
            (OP_LOAD, shared),
            (OP_COMPUTE, 40),
            (OP_BARRIER, 0),
            (OP_STORE, shared),
            (OP_CRITICAL, 1, 9, 0x9000),
            (OP_COMPUTE, 6),
        ]
        return [t0, t1]

    def test_identical_counters(self):
        threads = self._threads()
        config = CMPConfig(n_cores=2)
        reference = ChipMultiprocessor(config, fast_path=False).run(
            [iter(t) for t in threads]
        )
        fast = ChipMultiprocessor(config, fast_path=True).run(threads)
        assert counters(reference) == counters(fast)

    def test_critical_store_on_exclusive_line(self):
        # The load leaves the protected line EXCLUSIVE, so the critical
        # section's store is a silent E -> M hit; the peer's load after
        # the barrier must then find it MODIFIED (a cache-to-cache
        # transfer).
        threads = [
            [(OP_LOAD, 0x9000), (OP_CRITICAL, 1, 5, 0x9000), (OP_BARRIER, 0)],
            [(OP_BARRIER, 0), (OP_LOAD, 0x9000)],
        ]
        config = CMPConfig(n_cores=2)
        reference = ChipMultiprocessor(config, fast_path=False).run(
            [iter(t) for t in threads]
        )
        fast = ChipMultiprocessor(config, fast_path=True).run(threads)
        assert counters(reference) == counters(fast)
        assert fast.coherence.cache_to_cache == 1


class TestKernelStats:
    def test_fast_mode_reports_coverage(self):
        model = scaled(SPLASH2[0])
        compiled = compile_workload(model, 4, cache=None)
        result = ChipMultiprocessor(CMPConfig(n_cores=4)).run(
            compiled.program,
            model.core_timing(),
            warmup_barriers=model.warmup_barriers,
        )
        kernel = result.kernel
        assert kernel.mode == "fast"
        assert kernel.total_ops == compiled.program.total_ops
        assert (
            kernel.fast_path_ops + kernel.slow_path_ops + kernel.barrier_ops
            == kernel.total_ops
        )
        assert kernel.fast_path_ratio > 0.5
        assert kernel.sim_wall_s > 0.0
        assert kernel.ops_per_sec > 0.0

    def test_reference_mode_reports_ops(self):
        model = scaled(SPLASH2[0])
        result = ChipMultiprocessor(
            CMPConfig(n_cores=2), fast_path=False
        ).run(
            [model.thread_ops(t, 2) for t in range(2)],
            model.core_timing(),
            warmup_barriers=model.warmup_barriers,
        )
        kernel = result.kernel
        assert kernel.mode == "reference"
        assert kernel.fast_path_ops == 0
        assert kernel.fast_path_ratio == 0.0
        assert kernel.total_ops > 0

    def test_profile_collects_subsystem_time(self):
        model = scaled(SPLASH2[0])
        compiled = compile_workload(model, 4, cache=None)
        # The slow-path timers run while the process tracer is enabled.
        previous = set_tracer(Tracer(enabled=True))
        try:
            result = ChipMultiprocessor(CMPConfig(n_cores=4)).run(
                compiled.program,
                model.core_timing(),
                warmup_barriers=model.warmup_barriers,
            )
        finally:
            set_tracer(previous)
        assert "memory" in result.kernel.subsystem_s
