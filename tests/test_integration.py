"""Cross-model integration tests: the two halves must agree.

The paper's central validation claim is that "the analytical model
captures the power-performance behavior reasonably well" compared to the
detailed simulation.  These tests assert that agreement on our
reproduction: feed the *measured* efficiency curve from the simulator
into the analytical Scenario I and check the predicted power savings
land in the same region the experimental pipeline measures.
"""

import pytest

from repro.core import AnalyticalChipModel, PowerOptimizationScenario
from repro.core.efficiency import MeasuredEfficiency
from repro.harness import ExperimentContext, run_scenario1
from repro.tech import NODE_65NM
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.15)


@pytest.fixture(scope="module")
def fmm_rows(context):
    return run_scenario1(
        context, [workload_by_name("FMM")], core_counts=(1, 2, 4, 8)
    )["FMM"]


class TestAnalyticalPredictsExperiment:
    def test_power_savings_same_region(self, fmm_rows):
        """Analytical Scenario I with the measured eps curve should put
        normalized power within ~2x of the simulated value (the paper
        claims qualitative, not quantitative, agreement)."""
        measured = {row.n: row.nominal_efficiency for row in fmm_rows if row.n > 1}
        efficiency = MeasuredEfficiency(measured)
        scenario = PowerOptimizationScenario(AnalyticalChipModel(NODE_65NM))
        for row in fmm_rows:
            if row.n == 1:
                continue
            predicted = scenario.solve(row.n, efficiency(row.n)).normalized_power
            assert predicted < 1.0
            assert row.normalized_power < 1.0
            ratio = row.normalized_power / predicted
            assert 0.4 < ratio < 2.5, (row.n, row.normalized_power, predicted)

    def test_both_models_agree_power_falls_then_flattens(self, fmm_rows):
        experimental = [row.normalized_power for row in fmm_rows if row.n > 1]
        # Strictly better than baseline everywhere and biggest drop first.
        assert all(p < 1.0 for p in experimental)
        drops = [a - b for a, b in zip([1.0] + experimental, experimental)]
        assert drops[0] == max(drops)

    def test_simulated_speedup_never_below_target(self, fmm_rows):
        """The analytical model predicts exactly 1.0; the simulator may
        overshoot (memory gap) but must not undershoot materially."""
        for row in fmm_rows:
            assert row.actual_speedup >= 0.95


class TestEndToEndDeterminism:
    def test_pipeline_reproducible(self, context):
        first = run_scenario1(
            context, [workload_by_name("Water-Sp")], core_counts=(1, 2)
        )["Water-Sp"]
        second = run_scenario1(
            context, [workload_by_name("Water-Sp")], core_counts=(1, 2)
        )["Water-Sp"]
        for a, b in zip(first, second):
            assert a.normalized_power == b.normalized_power
            assert a.actual_speedup == b.actual_speedup
            assert a.average_temperature_c == b.average_temperature_c


class TestPhysicalSanity:
    def test_energy_conservation_of_power_map(self, context):
        """The thermal solve's heat outflow must equal the power map."""
        result, power = context.run(workload_by_name("Barnes"), 2)
        network = context.thermal.network
        temps = power.thermal.block_temperatures_k
        outflow = sum(
            (temps[name] - context.thermal.ambient_k)
            * network._vertical_conductance(name)
            for name in temps
        )
        assert outflow == pytest.approx(sum(power.power_map.values()), rel=1e-6)

    def test_power_scales_with_voltage_squared_times_frequency(self, context):
        """End-to-end Eq. 2 check through the whole stack: same workload
        at two operating points, dynamic power ratio ~ (V^2 f) ratio."""
        model = workload_by_name("Water-Sp")
        _r1, p_full = context.run(model, 2, 3.2e9)
        _r2, p_half = context.run(model, 2, 1.6e9)
        v_full = context.vf_table.voltage_for_frequency(3.2e9)
        v_half = context.vf_table.voltage_for_frequency(1.6e9)
        expected = (v_half / v_full) ** 2 * (1.6 / 3.2)
        observed = p_half.dynamic_w / p_full.dynamic_w
        # Event *rates* don't halve exactly (memory time doesn't scale),
        # so allow a generous band around the Eq. 2 prediction.
        assert expected * 0.6 < observed < expected * 1.9
