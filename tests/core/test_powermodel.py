"""Tests for the analytical chip power model with thermal feedback."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnalyticalChipModel
from repro.core.powermodel import PowerBreakdown
from repro.errors import ConfigurationError, ConvergenceError
from repro.tech import NODE_130NM, NODE_65NM
from repro.units import celsius_to_kelvin


@pytest.fixture(scope="module", params=["130nm", "65nm"])
def chip(request):
    node = {"130nm": NODE_130NM, "65nm": NODE_65NM}[request.param]
    return AnalyticalChipModel(node)


class TestConstruction:
    def test_defaults(self):
        chip = AnalyticalChipModel(NODE_65NM)
        assert chip.n_cores_max == 32
        assert chip.p1_watts == 60.0

    def test_static_dynamic_split_matches_node(self):
        chip = AnalyticalChipModel(NODE_65NM)
        ref = chip.reference_point()
        assert ref.power.static_fraction == pytest.approx(
            NODE_65NM.static_fraction_nominal, abs=1e-6
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AnalyticalChipModel(NODE_65NM, n_cores_max=0)
        with pytest.raises(ConfigurationError):
            AnalyticalChipModel(NODE_65NM, p1_watts=-5.0)
        with pytest.raises(ConfigurationError):
            AnalyticalChipModel(NODE_65NM, t1_celsius=40.0, ambient_celsius=45.0)


class TestReferencePoint:
    def test_design_point_self_consistent(self, chip):
        ref = chip.reference_point()
        # By construction: total power = p1, temperature = t1.
        assert ref.power.total_w == pytest.approx(chip.p1_watts, rel=1e-6)
        assert ref.temperature_celsius == pytest.approx(chip.t1_celsius, abs=1e-3)

    def test_reference_uses_nominal_vf(self, chip):
        ref = chip.reference_point()
        assert ref.voltage == chip.tech.vdd_nominal
        assert ref.frequency_hz == chip.tech.f_nominal


class TestChipPower:
    def test_dynamic_power_cubic_scaling(self, chip):
        # P_dyn ~ V^2 f; halving V at fixed f quarters dynamic power.
        tech = chip.tech
        f = tech.fmax(tech.v_min)
        full = chip.core_dynamic_power(tech.vdd_nominal, f)
        half_v = chip.core_dynamic_power(tech.vdd_nominal / 2, f)
        assert half_v == pytest.approx(full / 4)

    def test_dynamic_power_linear_in_frequency(self, chip):
        v = chip.tech.vdd_nominal
        assert chip.core_dynamic_power(v, 1e9) == pytest.approx(
            2 * chip.core_dynamic_power(v, 0.5e9)
        )

    def test_static_power_grows_with_temperature(self, chip):
        v = chip.tech.vdd_nominal
        cold = chip.core_static_power(v, celsius_to_kelvin(45))
        hot = chip.core_static_power(v, celsius_to_kelvin(100))
        assert hot > cold

    def test_chip_power_scales_with_active_cores(self, chip):
        tech = chip.tech
        t = celsius_to_kelvin(60)
        f = tech.fmax(tech.v_min)
        one = chip.chip_power(1, tech.v_min, f, t)
        four = chip.chip_power(4, tech.v_min, f, t)
        assert four.total_w == pytest.approx(4 * one.total_w)

    def test_breakdown_total(self):
        pb = PowerBreakdown(dynamic_w=30.0, static_w=10.0)
        assert pb.total_w == 40.0
        assert pb.static_fraction == 0.25

    def test_rejects_illegal_points(self, chip):
        tech = chip.tech
        with pytest.raises(ConfigurationError):
            chip.chip_power(0, tech.vdd_nominal, tech.f_nominal, 300.0)
        with pytest.raises(ConfigurationError):
            chip.chip_power(1, tech.v_min * 0.5, 1e9, 300.0)
        with pytest.raises(ConfigurationError):
            # Frequency beyond what the voltage sustains.
            chip.chip_power(1, tech.v_min, tech.f_nominal, 300.0)


class TestEquilibrium:
    def test_temperature_floor_at_deep_scaling(self, chip):
        tech = chip.tech
        point = chip.equilibrium(1, tech.v_min, tech.fmax(tech.v_min) * 0.01)
        # Nearly idle: temperature approaches (but never undercuts) ambient.
        assert point.temperature_celsius >= chip.ambient_celsius - 1e-9
        assert point.temperature_celsius < chip.ambient_celsius + 10.0

    def test_equilibrium_power_consistent_with_temperature(self, chip):
        tech = chip.tech
        point = chip.equilibrium(4, tech.v_min, tech.fmax(tech.v_min))
        recomputed = chip.chip_power(
            4, tech.v_min, tech.fmax(tech.v_min), point.temperature_k
        )
        assert recomputed.total_w == pytest.approx(point.power.total_w, rel=1e-6)

    def test_runaway_detected(self):
        chip = AnalyticalChipModel(NODE_130NM)
        tech = chip.tech
        with pytest.raises(ConvergenceError):
            # 32 cores at full throttle cannot be cooled by a package
            # calibrated for one.
            chip.equilibrium(32, tech.vdd_nominal, tech.f_nominal)

    @given(scale=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_power_monotone_in_frequency(self, scale):
        chip = AnalyticalChipModel(NODE_65NM)
        tech = chip.tech
        f = tech.fmax(tech.v_min) * scale
        low = chip.equilibrium(2, tech.v_min, f * 0.5)
        high = chip.equilibrium(2, tech.v_min, f)
        assert high.power.total_w >= low.power.total_w - 1e-9
