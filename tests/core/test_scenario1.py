"""Tests for Scenario I: power optimization at iso-performance (Sec. 2.2)."""

import pytest

from repro.core import AnalyticalChipModel, PowerOptimizationScenario, SAMPLE_APPLICATION
from repro.core.efficiency import MeasuredEfficiency
from repro.errors import InfeasibleOperatingPoint
from repro.tech import NODE_130NM, NODE_65NM


@pytest.fixture(scope="module", params=["130nm", "65nm"])
def scenario(request):
    node = {"130nm": NODE_130NM, "65nm": NODE_65NM}[request.param]
    return PowerOptimizationScenario(AnalyticalChipModel(node))


class TestSolve:
    def test_iso_performance_frequency(self, scenario):
        point = scenario.solve(4, 0.8)
        # Eq. 7: f = f1 / (N eps) = f1 / 3.2.
        assert point.frequency_hz == pytest.approx(
            scenario.chip.tech.f_nominal / 3.2
        )

    def test_overclock_region_infeasible(self, scenario):
        with pytest.raises(InfeasibleOperatingPoint):
            scenario.solve(2, 0.45)  # N * eps = 0.9 < 1

    def test_perfect_efficiency_saves_power(self, scenario):
        # The paper: all curves show savings beyond some efficiency.
        for n in (2, 4, 8, 16):
            point = scenario.solve(n, 1.0)
            assert point.normalized_power < 1.0, f"N={n}"

    def test_savings_grow_with_efficiency(self, scenario):
        # Figure 1: higher eps_n allows greater power savings at fixed N.
        powers = [scenario.solve(8, eps).normalized_power for eps in (0.4, 0.6, 0.8, 1.0)]
        assert all(b < a for a, b in zip(powers, powers[1:]))

    def test_voltage_clamped_to_legal_range(self, scenario):
        tech = scenario.chip.tech
        for n, eps in ((2, 0.6), (16, 1.0), (32, 1.0)):
            point = scenario.solve(n, eps)
            assert tech.v_min - 1e-9 <= point.voltage <= tech.vdd_nominal + 1e-9

    def test_voltage_floor_flag(self, scenario):
        # At very low target frequencies the voltage floor is reached and
        # frequency alone keeps scaling (Figure 1's curvature change).
        deep = scenario.solve(32, 1.0)
        assert deep.voltage == pytest.approx(scenario.chip.tech.v_min)
        assert deep.voltage_floored

    def test_temperature_decreases_with_cores_at_iso_performance(self, scenario):
        # More cores at equal performance -> lower V/f -> cooler die.
        temps = [scenario.solve(n, 1.0).temperature_celsius for n in (2, 4, 8)]
        assert all(b < a for a, b in zip(temps, temps[1:]))

    def test_temperature_floor_is_ambient(self, scenario):
        point = scenario.solve(32, 1.0)
        assert point.temperature_celsius >= scenario.chip.ambient_celsius - 1e-9


class TestFigure1Properties:
    def test_high_n_curves_above_low_n_at_high_efficiency(self, scenario):
        # The paper: high-N curves run above low-N ones at high
        # efficiency because static power of many cores dominates.
        p16 = scenario.solve(16, 1.0).normalized_power
        p32 = scenario.solve(32, 1.0).normalized_power
        assert p32 > p16

    def test_breakeven_lower_for_moderate_n(self, scenario):
        # Configurations with higher N reach breakeven at lower
        # efficiency... up to the point where static power reverses it.
        be2 = scenario.breakeven_efficiency(2)
        be8 = scenario.breakeven_efficiency(8)
        assert be8 < be2

    def test_breakeven_bounds(self, scenario):
        for n in (2, 4, 8, 16):
            be = scenario.breakeven_efficiency(n)
            assert be is None or 1.0 / n <= be <= 1.0

    def test_efficiency_sweep_skips_infeasible(self, scenario):
        points = scenario.efficiency_sweep(2, [0.1, 0.3, 0.8, 1.0])
        assert [p.eps_n for p in points] == [0.8, 1.0]

    def test_best_configuration_not_always_largest(self, scenario):
        # The paper's sample application: maximum savings is NOT at N=32.
        best = scenario.best_configuration(SAMPLE_APPLICATION, (2, 4, 8, 16, 32))
        assert best.n < 32

    def test_best_configuration_infeasible_application(self, scenario):
        terrible = MeasuredEfficiency({2: 0.2, 4: 0.1, 8: 0.05, 16: 0.02, 32: 0.01})
        with pytest.raises(InfeasibleOperatingPoint):
            scenario.best_configuration(terrible, (2, 4, 8, 16, 32))


class TestCrossTechnology:
    def test_reference_normalisation_is_one(self):
        for node in (NODE_130NM, NODE_65NM):
            scenario = PowerOptimizationScenario(AnalyticalChipModel(node))
            ref = scenario.reference
            assert ref.power.total_w == pytest.approx(
                scenario.chip.p1_watts, rel=1e-6
            )
