"""Tests for the Wattch energy model and the static-power curve."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.power import StaticPowerModel, UnitEnergies, WattchModel
from repro.sim import ChipMultiprocessor, CMPConfig
from repro.sim.config import OP_COMPUTE, OP_LOAD


def run_simple(config=None, n_instructions=5000):
    chip = ChipMultiprocessor(config or CMPConfig())
    ops = [(OP_COMPUTE, n_instructions), (OP_LOAD, 64)]
    return chip.run([ops])


class TestUnitEnergies:
    def test_voltage_scale_quadratic(self):
        e = UnitEnergies()
        assert e.voltage_scale(1.1) == pytest.approx(1.0)
        assert e.voltage_scale(0.55) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UnitEnergies(v_nominal=0.0)
        with pytest.raises(ConfigurationError):
            UnitEnergies(idle_gating=2.0)
        with pytest.raises(ConfigurationError):
            UnitEnergies().voltage_scale(-1.0)


class TestWattchModel:
    def test_power_map_covers_active_cores_and_l2(self):
        wattch = WattchModel()
        chip = ChipMultiprocessor(CMPConfig())
        result = chip.run([[(OP_COMPUTE, 1000)], [(OP_COMPUTE, 1000)]])
        power_map = wattch.dynamic_power_map(result)
        assert set(power_map) == {"core0", "core1", "l2"}
        assert all(p > 0 for p in power_map.values())

    def test_voltage_scaling_reduces_power(self):
        wattch = WattchModel()
        nominal = run_simple(CMPConfig(frequency_hz=3.2e9, voltage=1.1))
        scaled = run_simple(CMPConfig(frequency_hz=3.2e9, voltage=0.8))
        assert wattch.total_dynamic_power_w(scaled) < wattch.total_dynamic_power_w(
            nominal
        )

    def test_frequency_scaling_reduces_power(self):
        wattch = WattchModel()
        fast = run_simple(CMPConfig(frequency_hz=3.2e9, voltage=1.1))
        slow = run_simple(CMPConfig(frequency_hz=1.6e9, voltage=1.1))
        # Same work over twice the time: roughly half the power.
        ratio = wattch.total_dynamic_power_w(slow) / wattch.total_dynamic_power_w(fast)
        assert 0.4 < ratio < 0.7

    def test_busy_core_burns_more_than_stalled(self):
        wattch = WattchModel()
        chip = ChipMultiprocessor(CMPConfig())
        busy = chip.run([[(OP_COMPUTE, 20_000)]])
        stalled = ChipMultiprocessor(CMPConfig()).run(
            [[(OP_LOAD, i * 4096) for i in range(80)]]
        )
        busy_power = wattch.core_dynamic_energy_j(busy, 0) / busy.execution_time_s
        stalled_power = (
            wattch.core_dynamic_energy_j(stalled, 0) / stalled.execution_time_s
        )
        assert stalled_power < busy_power

    def test_l2_power_small_relative_to_busy_core(self):
        # Section 3.3: the L2's power density is far below the cores'.
        wattch = WattchModel()
        result = run_simple(n_instructions=20_000)
        core = wattch.core_dynamic_energy_j(result, 0)
        l2 = wattch.l2_dynamic_energy_j(result)
        assert l2 < 0.2 * core


class TestStaticPowerModel:
    def test_design_anchor(self):
        model = StaticPowerModel()
        assert model.ratio(100.0) == pytest.approx(0.35 / 0.65)

    def test_doubles_per_step(self):
        model = StaticPowerModel(doubling_celsius=25.0)
        assert model.ratio(125.0) == pytest.approx(2 * model.ratio(100.0))
        assert model.ratio(75.0) == pytest.approx(0.5 * model.ratio(100.0))

    def test_static_power(self):
        model = StaticPowerModel()
        assert model.static_power_w(10.0, 100.0) == pytest.approx(10 * 0.35 / 0.65)

    def test_split_total_roundtrip(self):
        model = StaticPowerModel()
        dynamic, static = model.split_total(100.0, 80.0)
        assert dynamic + static == pytest.approx(100.0)
        assert static == pytest.approx(model.static_power_w(dynamic, 80.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaticPowerModel(design_ratio=0.0)
        with pytest.raises(ConfigurationError):
            StaticPowerModel().static_power_w(-1.0, 50.0)

    @given(t=st.floats(min_value=30.0, max_value=120.0))
    @settings(max_examples=30)
    def test_ratio_positive_and_monotone(self, t):
        model = StaticPowerModel()
        assert model.ratio(t) > 0
        assert model.ratio(t + 1.0) > model.ratio(t)
