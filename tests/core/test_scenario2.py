"""Tests for Scenario II: performance under a power budget (Sec. 2.3)."""

import pytest

from repro.core import AnalyticalChipModel, PerformanceOptimizationScenario
from repro.core.efficiency import ConstantEfficiency
from repro.errors import InfeasibleOperatingPoint
from repro.tech import NODE_130NM, NODE_65NM


@pytest.fixture(scope="module")
def scenario_130():
    return PerformanceOptimizationScenario(AnalyticalChipModel(NODE_130NM))


@pytest.fixture(scope="module")
def scenario_65():
    return PerformanceOptimizationScenario(AnalyticalChipModel(NODE_65NM))


class TestBudget:
    def test_default_budget_is_1core_power(self, scenario_130):
        assert scenario_130.budget_w == pytest.approx(60.0, rel=1e-6)

    def test_all_solutions_respect_budget(self, scenario_130):
        for n in (1, 2, 4, 8, 16, 32):
            point = scenario_130.solve(n, 1.0)
            assert point.power.total_w <= scenario_130.budget_w * (1 + 1e-4)

    def test_single_core_runs_nominal(self, scenario_130):
        point = scenario_130.solve(1, 1.0)
        assert point.regime == "nominal"
        assert point.speedup == pytest.approx(1.0)

    def test_custom_budget(self):
        chip = AnalyticalChipModel(NODE_130NM)
        generous = PerformanceOptimizationScenario(chip, budget_w=120.0)
        tight = PerformanceOptimizationScenario(chip, budget_w=30.0)
        assert generous.solve(4, 1.0).speedup > tight.solve(4, 1.0).speedup


class TestRegimes:
    def test_regime_progression_with_n(self, scenario_130):
        regimes = [scenario_130.solve(n, 1.0).regime for n in (1, 8, 32)]
        assert regimes[0] == "nominal"
        assert regimes[1] == "voltage-scaling"
        assert regimes[2] == "frequency-only"

    def test_voltage_scaling_meets_budget_exactly(self, scenario_130):
        point = scenario_130.solve(8, 1.0)
        assert point.regime == "voltage-scaling"
        assert point.power.total_w == pytest.approx(scenario_130.budget_w, rel=1e-3)

    def test_frequency_only_sits_at_voltage_floor(self, scenario_130):
        point = scenario_130.solve(32, 1.0)
        assert point.regime == "frequency-only"
        assert point.voltage == pytest.approx(scenario_130.chip.tech.v_min)


class TestFigure2Properties:
    def test_speedup_grows_then_declines(self, scenario_130):
        speedups = [scenario_130.solve(n, 1.0).speedup for n in range(1, 33)]
        peak_idx = speedups.index(max(speedups))
        # Grows up to the peak...
        assert all(b > a for a, b in zip(speedups[:peak_idx], speedups[1 : peak_idx + 1]))
        # ...and strictly declines after it (the paper's headline result).
        tail = speedups[peak_idx:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert 0 < peak_idx < 31  # interior peak even at eps_n = 1

    def test_peak_a_little_over_4_at_130nm(self, scenario_130):
        speedups = [scenario_130.solve(n, 1.0).speedup for n in range(1, 33)]
        assert 4.0 < max(speedups) < 5.0

    def test_65nm_peaks_lower_and_earlier(self, scenario_130, scenario_65):
        s130 = [scenario_130.solve(n, 1.0).speedup for n in range(1, 33)]
        peak130 = max(s130)
        n65, s65 = [], []
        for n in range(1, 33):
            try:
                s65.append(scenario_65.solve(n, 1.0).speedup)
                n65.append(n)
            except InfeasibleOperatingPoint:
                break
        peak65 = max(s65)
        assert peak65 < peak130
        assert n65[s65.index(peak65)] < s130.index(peak130) + 1

    def test_65nm_below_130nm_at_large_n(self, scenario_130, scenario_65):
        # The 65 nm node's larger static share makes its curve collapse;
        # beyond the peak it runs clearly below the 130 nm curve.
        for n in (10, 12, 16):
            assert scenario_65.solve(n, 1.0).speedup < scenario_130.solve(n, 1.0).speedup

    def test_speedup_curve_skips_infeasible_tail(self, scenario_65):
        points = scenario_65.speedup_curve(ConstantEfficiency(1.0), range(1, 33))
        ns = [p.n for p in points]
        assert ns == sorted(ns)
        assert ns[0] == 1

    def test_best_configuration_interior(self, scenario_130):
        best = scenario_130.best_configuration(ConstantEfficiency(1.0), range(1, 33))
        assert 1 < best.n < 32

    def test_lower_efficiency_lowers_speedup(self, scenario_130):
        perfect = scenario_130.solve(8, 1.0).speedup
        imperfect = scenario_130.solve(8, 0.7).speedup
        assert imperfect < perfect
        # V/f depend only on the power side, so the ratio is exactly eps.
        assert imperfect == pytest.approx(0.7 * perfect)
