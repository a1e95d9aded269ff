"""Tests for the thermal network's steady-state solver."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.thermal import Block, Floorplan, ThermalRCNetwork, cmp_floorplan
from repro.thermal.rcnetwork import ThermalMaterial
from repro.units import celsius_to_kelvin

AMBIENT = celsius_to_kelvin(45.0)


def two_block_plan():
    return Floorplan(
        blocks=(
            Block("hot", 0, 0, 1e-3, 1e-3),
            Block("cold", 1e-3, 0, 1e-3, 1e-3),
        )
    )


class TestSteadyState:
    def test_zero_power_is_ambient(self):
        network = ThermalRCNetwork(two_block_plan())
        temps = network.steady_state({}, AMBIENT)
        for t in temps.values():
            assert t == pytest.approx(AMBIENT)

    def test_temperatures_above_ambient_with_power(self):
        network = ThermalRCNetwork(two_block_plan())
        temps = network.steady_state({"hot": 10.0}, AMBIENT)
        assert temps["hot"] > AMBIENT
        assert temps["cold"] > AMBIENT  # lateral coupling spreads heat

    def test_powered_block_is_hottest(self):
        network = ThermalRCNetwork(two_block_plan())
        temps = network.steady_state({"hot": 10.0}, AMBIENT)
        assert temps["hot"] > temps["cold"]

    def test_linearity_in_power(self):
        network = ThermalRCNetwork(two_block_plan())
        t1 = network.steady_state({"hot": 5.0}, AMBIENT)
        t2 = network.steady_state({"hot": 10.0}, AMBIENT)
        rise1 = t1["hot"] - AMBIENT
        rise2 = t2["hot"] - AMBIENT
        assert rise2 == pytest.approx(2.0 * rise1)

    def test_energy_balance(self):
        # Total heat into ambient equals total power injected.
        network = ThermalRCNetwork(two_block_plan())
        power = {"hot": 7.0, "cold": 3.0}
        temps = network.steady_state(power, AMBIENT)
        total_out = sum(
            (temps[name] - AMBIENT) * network._vertical_conductance(name)
            for name in temps
        )
        assert total_out == pytest.approx(10.0, rel=1e-9)

    def test_unknown_block_rejected(self):
        network = ThermalRCNetwork(two_block_plan())
        with pytest.raises(ConfigurationError):
            network.steady_state({"nope": 1.0}, AMBIENT)

    def test_negative_power_rejected(self):
        network = ThermalRCNetwork(two_block_plan())
        with pytest.raises(ConfigurationError):
            network.steady_state({"hot": -1.0}, AMBIENT)

    def test_vertical_scale_raises_temperature(self):
        base = ThermalRCNetwork(two_block_plan())
        insulated = ThermalRCNetwork(
            two_block_plan(),
            ThermalMaterial(
                vertical_resistance_area=2.0 * base.material.vertical_resistance_area
            ),
        )
        t_base = base.steady_state({"hot": 10.0}, AMBIENT)["hot"]
        t_ins = insulated.steady_state({"hot": 10.0}, AMBIENT)["hot"]
        assert t_ins > t_base

    @given(watts=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=25)
    def test_temperature_never_below_ambient(self, watts):
        network = ThermalRCNetwork(two_block_plan())
        temps = network.steady_state({"hot": watts}, AMBIENT)
        assert all(t >= AMBIENT - 1e-9 for t in temps.values())


class TestMaterial:
    def test_invalid_material_rejected(self):
        with pytest.raises(ConfigurationError):
            ThermalMaterial(silicon_conductivity=-1.0)


#: sha256 of the conductance matrix's bytes for ``cmp_floorplan(n)``.
#: Each diagonal entry sums up to five lateral terms plus the vertical
#: one, so the accumulation order is part of the pinned bits.
CONDUCTANCE_SHA256 = {
    1: "1bc17e042d9e5a9729cea1c175bd117fe8983d3b2e6b506af62035b414fcf3b4",
    2: "264d7a80e5d41b763994dc406c3fed16b361235f8c404c4bc9472737990fec8c",
    3: "58d6d8689bf0700c00470fc32d1c2a1f88d6310629f6388860a97b5088063a3c",
    4: "481f1b0ca927f50da66898a4b0c2524f5956dcbd33db1651a07c3b7f52081350",
    5: "b5954d1e20ca0f97c96bb81cc9e16d3de426be001e3dae45b4548034182d0c34",
    6: "be1b8fce4bbb3af332641575fe72fe53d865c8739088f35394999ac91e59a337",
    7: "49ac46afd46df41ddab373efe418085cf50bbc24a4b9ef81b59ffb5c00a24671",
    8: "ff134bc898663fb79e54869c1c595c324c475f1a1abc7c665c62d8da4d4cacee",
    9: "5325fb8443241b060a490161eeda33e9e8f15f60dfd20db9913d73e7c1fe6379",
    10: "a2ec987f6e73d3c6b65b0be62e06906839a2fab983b1bf97d87679cafbc8d66b",
    11: "31f90cc42b7ef3ac72d5eaeb9478c6ec7a5b64c767e063a4b2c8c2c92fb8de61",
    12: "3e2fc790a9ef7fe45d290a6057a9921563891c0051836bb222785f5c0f19c81b",
    13: "abdbd8e1208bcb76dc4a2f1024cb8f118a1d4c4565e41596afb1455b0759aa80",
    14: "f2224f753566d36b810caccec89940ca53c98533985b4a7aaeed8223c60c7b42",
    15: "401639fb76d5c6b999af06d1138cbdc034b14583d51833ae75dfb3825835cbc5",
    16: "54f4e44c7046d49b026c6d6a3659438fc21b930b1bd11bd6958c81bd28397ed9",
}


@pytest.mark.parametrize("n_cores", sorted(CONDUCTANCE_SHA256))
def test_cmp_conductance_matrix_is_bitwise_pinned(n_cores):
    matrix = ThermalRCNetwork(cmp_floorplan(n_cores))._conductance
    digest = hashlib.sha256(matrix.tobytes()).hexdigest()
    assert digest == CONDUCTANCE_SHA256[n_cores]
