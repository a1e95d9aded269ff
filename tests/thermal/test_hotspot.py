"""Tests for the HotSpot-style facade."""

import pytest

from repro.errors import ConfigurationError
from repro.thermal import HotSpotModel, cmp_floorplan


@pytest.fixture()
def cmp_model():
    return HotSpotModel(
        cmp_floorplan(16), ambient_celsius=45.0, exclude_from_average=("l2",)
    )


class TestSolve:
    def test_idle_chip_sits_at_ambient(self, cmp_model):
        result = cmp_model.solve({})
        assert result.average_celsius() == pytest.approx(45.0)
        assert result.peak_celsius() == pytest.approx(45.0)

    def test_single_hot_core(self, cmp_model):
        result = cmp_model.solve({"core0": 40.0})
        assert result.peak_k == result.block_temperatures_k["core0"]
        assert result.peak_celsius() > 45.0

    def test_l2_excluded_from_average(self, cmp_model):
        result = cmp_model.solve({"l2": 100.0})
        # The L2 is hot but the (core-only) average barely moves compared
        # to the same power in a core.
        core_version = cmp_model.solve({"core0": 100.0})
        assert result.average_k < core_version.average_k
        assert "l2" in result.block_temperatures_k

    def test_spreading_lowers_average_density_temperature(self, cmp_model):
        concentrated = cmp_model.solve({"core0": 64.0})
        spread = cmp_model.solve({f"core{i}": 4.0 for i in range(16)})
        assert spread.peak_k < concentrated.peak_k

    def test_exclude_validation(self):
        with pytest.raises(ConfigurationError):
            HotSpotModel(cmp_floorplan(4), exclude_from_average=("bogus",))

    def test_all_excluded_rejected(self):
        model = HotSpotModel(
            cmp_floorplan(1), exclude_from_average=("l2", "core0")
        )
        with pytest.raises(ConfigurationError):
            model.solve({"core0": 1.0})

    def test_single_core_floorplan_works_end_to_end(self):
        model = HotSpotModel(cmp_floorplan(1), ambient_celsius=45.0)
        result = model.solve({"core0": 10.0, "l2": 5.0})
        assert 45.0 < result.average_celsius() < result.peak_celsius()
