"""Tests for Scenario III: energy(-delay) optimization (library extension)."""

import pytest

from repro.core import AnalyticalChipModel, EnergyOptimizationScenario, SAMPLE_APPLICATION
from repro.core.efficiency import ConstantEfficiency
from repro.errors import ConfigurationError
from repro.tech import NODE_130NM, NODE_65NM


@pytest.fixture(scope="module")
def chip():
    return AnalyticalChipModel(NODE_65NM)


@pytest.fixture(scope="module")
def energy_scenario(chip):
    return EnergyOptimizationScenario(chip, delay_weight=0.0)


@pytest.fixture(scope="module")
def edp_scenario(chip):
    return EnergyOptimizationScenario(chip, delay_weight=1.0)


class TestSolve:
    def test_energy_optimum_saves_energy(self, energy_scenario):
        point = energy_scenario.solve(1, 1.0)
        assert point.relative_energy < 1.0  # beats running at nominal

    def test_optimum_below_nominal_frequency(self, energy_scenario, chip):
        point = energy_scenario.solve(1, 1.0)
        assert point.frequency_hz < chip.tech.f_nominal

    def test_optimum_at_or_above_floor_knee(self, energy_scenario, chip):
        # Below the voltage floor, slowing down is pure static loss, so
        # the energy optimum never sits below the floor's max frequency.
        point = energy_scenario.solve(1, 1.0)
        knee = chip.tech.fmax(chip.tech.v_min)
        assert point.frequency_hz >= knee * 0.98

    def test_nominal_point_energy_is_one(self, energy_scenario, chip):
        # Evaluate the reference identity: E at nominal V/f, N=1, is 1.
        _obj, _point, rel_time, rel_energy = energy_scenario._evaluate(
            1, 1.0, chip.tech.f_nominal
        )
        assert rel_time == pytest.approx(1.0)
        assert rel_energy == pytest.approx(1.0, rel=1e-6)

    def test_energy_roughly_flat_in_n_at_perfect_efficiency(self, energy_scenario):
        # Same work split across cores: energy is nearly N-independent
        # (static-during-runtime effects make it creep up slightly).
        e1 = energy_scenario.solve(1, 1.0).relative_energy
        e16 = energy_scenario.solve(16, 1.0).relative_energy
        assert e16 == pytest.approx(e1, rel=0.25)
        assert e16 >= e1

    def test_validation(self, energy_scenario):
        with pytest.raises(ConfigurationError):
            energy_scenario.solve(0, 1.0)
        with pytest.raises(ConfigurationError):
            energy_scenario.solve(2, 0.0)
        with pytest.raises(ConfigurationError):
            EnergyOptimizationScenario(
                AnalyticalChipModel(NODE_65NM), delay_weight=-1.0
            )


class TestDelayWeight:
    def test_edp_runs_faster_than_pure_energy(self):
        # Use the 130 nm node, where the voltage floor's knee is gentle
        # enough that the delay weight visibly moves the optimum (at
        # 65 nm both optima pin to the same sharp knee).
        chip = AnalyticalChipModel(NODE_130NM)
        e_point = EnergyOptimizationScenario(chip, delay_weight=0.0).solve(1, 1.0)
        edp_point = EnergyOptimizationScenario(chip, delay_weight=1.0).solve(1, 1.0)
        assert edp_point.frequency_hz > e_point.frequency_hz
        assert edp_point.relative_time < e_point.relative_time

    def test_edp_prefers_parallelism(self, energy_scenario, edp_scenario):
        # Pure energy is indifferent-to-negative on core count; EDP loves
        # the delay reduction of more cores.
        e_best = energy_scenario.best_configuration(
            SAMPLE_APPLICATION, (1, 2, 4, 8, 16)
        )
        edp_best = edp_scenario.best_configuration(
            SAMPLE_APPLICATION, (1, 2, 4, 8, 16)
        )
        assert edp_best.n > e_best.n

    def test_objective_definition(self, edp_scenario):
        point = edp_scenario.solve(4, 0.9)
        assert point.relative_objective == pytest.approx(
            point.relative_energy * point.relative_time
        )


class TestCurves:
    def test_energy_curve_covers_counts(self, energy_scenario):
        points = energy_scenario.energy_curve(ConstantEfficiency(1.0), (1, 2, 4, 8))
        assert [p.n for p in points] == [1, 2, 4, 8]

    def test_poor_efficiency_wastes_energy(self, energy_scenario):
        good = energy_scenario.solve(8, 1.0).relative_energy
        poor = energy_scenario.solve(8, 0.4).relative_energy
        # Lower efficiency means more aggregate work-time: more energy.
        assert poor > good

    def test_cross_technology_sanity(self):
        # The leakier node pays more static energy at its optimum.
        e130 = EnergyOptimizationScenario(AnalyticalChipModel(NODE_130NM))
        e65 = EnergyOptimizationScenario(AnalyticalChipModel(NODE_65NM))
        assert e130.solve(1, 1.0).relative_energy < e65.solve(1, 1.0).relative_energy
