"""Tests for the per-core DVFS extension."""

import pytest

from repro.errors import ConfigurationError
from repro.harness import ExperimentContext, plan_core_frequencies, run_percore_dvfs
from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.ops import OP_BARRIER, OP_COMPUTE
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.08)


class TestSimulatorSupport:
    def test_per_core_clocks_change_compute_speed(self):
        chip = ChipMultiprocessor(CMPConfig())
        threads = [
            [(OP_COMPUTE, 10_000), (OP_BARRIER, 0)],
            [(OP_COMPUTE, 10_000), (OP_BARRIER, 0)],
        ]
        result = chip.run(
            threads,
            core_operating_points=[(3.2e9, 1.1), (1.6e9, 0.85)],
        )
        fast, slow = result.core_stats
        # The slow core's burst takes twice as long.
        assert slow.busy_ps == pytest.approx(2 * fast.busy_ps, rel=0.01)
        # The fast core waits at the barrier for the slow one.
        assert fast.sync_wait_ps > 0

    def test_operating_points_recorded(self):
        chip = ChipMultiprocessor(CMPConfig())
        result = chip.run(
            [[(OP_COMPUTE, 100)], [(OP_COMPUTE, 100)]],
            core_operating_points=[(3.2e9, 1.1), (1.0e9, 0.75)],
        )
        assert result.core_frequency(1) == 1.0e9
        assert result.core_voltage(1) == 0.75

    def test_uniform_defaults(self):
        chip = ChipMultiprocessor(CMPConfig())
        result = chip.run([[(OP_COMPUTE, 100)]])
        assert result.core_frequency(0) == result.config.frequency_hz
        assert result.core_voltage(0) == result.config.voltage

    def test_validation(self):
        chip = ChipMultiprocessor(CMPConfig())
        with pytest.raises(ConfigurationError):
            chip.run(
                [[(OP_COMPUTE, 1)]],
                core_operating_points=[(3.2e9, 1.1), (1e9, 0.8)],  # wrong count
            )
        with pytest.raises(ConfigurationError):
            chip.run([[(OP_COMPUTE, 1)]], core_operating_points=[(0.0, 1.1)])

    def test_per_core_voltage_scales_energy(self):
        from repro.power import WattchModel

        wattch = WattchModel()
        chip = ChipMultiprocessor(CMPConfig())
        def threads():
            return [[(OP_COMPUTE, 10_000)], [(OP_COMPUTE, 10_000)]]

        uniform = chip.run(
            threads(), core_operating_points=[(3.2e9, 1.1), (3.2e9, 1.1)]
        )
        lowered = ChipMultiprocessor(CMPConfig()).run(
            threads(), core_operating_points=[(3.2e9, 1.1), (3.2e9, 0.78)]
        )
        assert wattch.core_dynamic_energy_j(
            lowered, 1
        ) < wattch.core_dynamic_energy_j(uniform, 1)
        # Core 0's energy is unaffected by core 1's voltage.
        assert wattch.core_dynamic_energy_j(lowered, 0) == pytest.approx(
            wattch.core_dynamic_energy_j(uniform, 0), rel=0.02
        )


class TestPlanning:
    def test_slowest_core_keeps_nominal(self, context):
        uniform, _ = context.run(workload_by_name("Volrend"), 4)
        freqs = plan_core_frequencies(context, uniform)
        works = [s.total_active_ps for s in uniform.core_stats]
        assert freqs[works.index(max(works))] == pytest.approx(context.f_nominal)

    def test_frequencies_on_grid_and_in_range(self, context):
        uniform, _ = context.run(workload_by_name("Cholesky"), 4)
        for f in plan_core_frequencies(context, uniform):
            assert context.f_min - 1 <= f <= context.f_nominal + 1
            assert round(f / 200e6) == pytest.approx(f / 200e6)

    def test_guard_raises_frequencies(self, context):
        uniform, _ = context.run(workload_by_name("Cholesky"), 4)
        relaxed = plan_core_frequencies(context, uniform, guard=1.0)
        guarded = plan_core_frequencies(context, uniform, guard=1.15)
        assert all(g >= r for g, r in zip(guarded, relaxed))
        with pytest.raises(ConfigurationError):
            plan_core_frequencies(context, uniform, guard=0.9)


class TestPolicy:
    def test_imbalanced_app_saves_energy(self, context):
        result = run_percore_dvfs(context, workload_by_name("Cholesky"), 4)
        assert result.energy_saving > 0.0
        assert result.slowdown < 1.4

    def test_needs_multiple_threads(self, context):
        with pytest.raises(ConfigurationError):
            run_percore_dvfs(context, workload_by_name("Cholesky"), 1)

    def test_cholesky_result_is_pinned_bitwise(self):
        # Captured before the per-core run was routed through
        # ``ExperimentContext.run``; floats compare by ``repr``.
        result = run_percore_dvfs(
            ExperimentContext(workload_scale=0.05), workload_by_name("Cholesky"), 4
        )
        pinned = {
            "app": "Cholesky",
            "n": 4,
            "uniform_time_s": 6.7047989999999995e-06,
            "uniform_energy_j": 9.888987265206539e-05,
            "percore_time_s": 6.878602e-06,
            "percore_energy_j": 9.056073804776986e-05,
            "core_frequencies_hz": (3.2e9, 2.8e9, 2.8e9, 3.0e9),
            "core_voltages": (
                1.1,
                1.0349333333333335,
                1.0349333333333335,
                1.0674666666666668,
            ),
        }
        for name, want in pinned.items():
            got = getattr(result, name)
            assert repr(got) == repr(want), f"{name}: {got!r} != pinned {want!r}"

    def test_result_metrics(self, context):
        result = run_percore_dvfs(context, workload_by_name("Volrend"), 4)
        assert result.app == "Volrend"
        assert len(result.core_frequencies_hz) == 4
        assert result.uniform_energy_j > 0
        assert result.percore_energy_j > 0
