"""Tests for technology nodes, the alpha-power law, and VF tables."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, InfeasibleOperatingPoint
from repro.tech import NODE_130NM, NODE_65NM, TechnologyNode, VFTable
from repro.tech.technology import NODE_32NM_PROJECTED, technology_by_name

ALL_NODES = [NODE_130NM, NODE_65NM, NODE_32NM_PROJECTED]


class TestTechnologyNode:
    def test_paper_table1_constants(self):
        # Table 1: 65 nm, 3.2 GHz, Vdd 1.1 V, Vth 0.18 V.
        assert NODE_65NM.vdd_nominal == 1.1
        assert NODE_65NM.vth == 0.18
        assert NODE_65NM.f_nominal == 3.2e9

    @pytest.mark.parametrize("node", ALL_NODES, ids=lambda n: n.name)
    def test_nominal_voltage_yields_nominal_frequency(self, node):
        assert math.isclose(node.fmax(node.vdd_nominal), node.f_nominal)

    @pytest.mark.parametrize("node", ALL_NODES, ids=lambda n: n.name)
    def test_fmax_monotone_in_voltage(self, node):
        voltages = [
            node.v_min + i * (node.vdd_nominal - node.v_min) / 20 for i in range(21)
        ]
        freqs = [node.fmax(v) for v in voltages]
        assert all(f2 > f1 for f1, f2 in zip(freqs, freqs[1:]))

    def test_fmax_below_threshold_rejected(self):
        with pytest.raises(InfeasibleOperatingPoint):
            NODE_65NM.fmax(NODE_65NM.vth)

    @pytest.mark.parametrize("node", ALL_NODES, ids=lambda n: n.name)
    def test_voltage_for_frequency_inverts_fmax(self, node):
        for scale in (1.0, 0.8, 0.6):
            f = node.f_nominal * scale
            v = node.voltage_for_frequency(f)
            if v > node.v_min + 1e-9:
                assert math.isclose(node.fmax(v), f, rel_tol=1e-9)
            else:
                # Floored: the floor voltage must sustain the frequency.
                assert node.fmax(v) >= f

    def test_voltage_for_frequency_clamps_at_floor(self):
        node = NODE_65NM
        tiny = node.f_nominal * 1e-3
        assert node.voltage_for_frequency(tiny) == pytest.approx(node.v_min)

    def test_voltage_for_frequency_rejects_overclock(self):
        with pytest.raises(InfeasibleOperatingPoint):
            NODE_65NM.voltage_for_frequency(NODE_65NM.f_nominal * 1.01)

    def test_voltage_for_frequency_strict_mode(self):
        node = NODE_65NM
        tiny = node.f_nominal * 1e-3
        with pytest.raises(InfeasibleOperatingPoint):
            node.voltage_for_frequency(tiny, allow_floor=False)

    def test_frequency_scale_is_one_at_nominal(self):
        assert NODE_130NM.frequency_scale(NODE_130NM.vdd_nominal) == pytest.approx(1.0)

    def test_legal_voltage_bounds(self):
        node = NODE_65NM
        assert node.legal_voltage(node.v_min)
        assert node.legal_voltage(node.vdd_nominal)
        assert not node.legal_voltage(node.v_min * 0.9)
        assert not node.legal_voltage(node.vdd_nominal * 1.1)

    def test_invalid_constructions_rejected(self):
        with pytest.raises(ConfigurationError):
            TechnologyNode("bad", 65, 1.0, 1.2, 1e9)  # vth > vdd
        with pytest.raises(ConfigurationError):
            TechnologyNode("bad", 65, 1.0, 0.6, 1e9)  # floor 1.2 >= vdd
        with pytest.raises(ConfigurationError):
            TechnologyNode("bad", 65, 1.1, 0.18, 1e9, static_fraction_nominal=1.5)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_voltage_inversion_property(self, scale):
        node = NODE_130NM
        f = node.f_nominal * scale
        v = node.voltage_for_frequency(f)
        assert node.v_min - 1e-12 <= v <= node.vdd_nominal + 1e-12
        assert node.fmax(v) >= f * (1 - 1e-9)

    def test_lookup_by_name(self):
        assert technology_by_name("65nm") is NODE_65NM
        assert technology_by_name("130nm") is NODE_130NM
        with pytest.raises(ConfigurationError):
            technology_by_name("45nm")


class TestVFTable:
    def make_table(self):
        # The experimental study's grid: 200 MHz..3.2 GHz (Section 3.1).
        return VFTable.linear(NODE_65NM, f_min=200e6, f_max=3.2e9, step=200e6)

    def test_table_spans_requested_range(self):
        table = self.make_table()
        assert table.f_min == pytest.approx(200e6)
        assert table.f_max == pytest.approx(3.2e9)

    def test_top_entry_is_nominal_voltage(self):
        table = self.make_table()
        assert table.voltage_for_frequency(3.2e9) == pytest.approx(
            NODE_65NM.vdd_nominal
        )

    def test_voltages_non_decreasing(self):
        table = self.make_table()
        volts = [v for _, v in table.points]
        assert all(b >= a - 1e-12 for a, b in zip(volts, volts[1:]))

    def test_interpolation_between_grid_points(self):
        table = self.make_table()
        v_lo = table.voltage_for_frequency(1.0e9)
        v_hi = table.voltage_for_frequency(1.2e9)
        v_mid = table.voltage_for_frequency(1.1e9)
        assert v_lo <= v_mid <= v_hi
        assert v_mid == pytest.approx(0.5 * (v_lo + v_hi))

    def test_out_of_range_rejected(self):
        table = self.make_table()
        with pytest.raises(InfeasibleOperatingPoint):
            table.voltage_for_frequency(100e6)
        with pytest.raises(InfeasibleOperatingPoint):
            table.voltage_for_frequency(4.0e9)

    def test_low_entries_sit_at_noise_margin_floor(self):
        table = self.make_table()
        assert table.voltage_for_frequency(200e6) == pytest.approx(NODE_65NM.v_min)

    def test_validation_rejects_bad_tables(self):
        with pytest.raises(ConfigurationError):
            VFTable(points=((1e9, 1.0),))  # too short
        with pytest.raises(ConfigurationError):
            VFTable(points=((2e9, 1.0), (1e9, 1.1)))  # not increasing
        with pytest.raises(ConfigurationError):
            VFTable(points=((1e9, 1.1), (2e9, 1.0)))  # voltage decreasing

    @given(st.floats(min_value=200e6, max_value=3.2e9))
    def test_interpolated_voltage_within_bounds(self, f):
        table = self.make_table()
        v = table.voltage_for_frequency(f)
        assert NODE_65NM.v_min - 1e-9 <= v <= NODE_65NM.vdd_nominal + 1e-9
