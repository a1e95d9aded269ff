"""Tests for parallel-efficiency curve models."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.efficiency import (
    AmdahlEfficiency,
    CommunicationOverheadEfficiency,
    ConstantEfficiency,
    MeasuredEfficiency,
    SAMPLE_APPLICATION,
)
from repro.errors import ConfigurationError


class TestConstantEfficiency:
    def test_value_everywhere(self):
        eff = ConstantEfficiency(0.8)
        assert eff(2) == 0.8
        assert eff(32) == 0.8

    def test_n1_is_always_one(self):
        assert ConstantEfficiency(0.5)(1) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantEfficiency(0.0)
        with pytest.raises(ConfigurationError):
            ConstantEfficiency(1.0)(0)


class TestAmdahlEfficiency:
    def test_zero_serial_fraction_is_perfect(self):
        eff = AmdahlEfficiency(0.0)
        for n in (1, 2, 8, 32):
            assert eff(n) == pytest.approx(1.0)

    def test_pure_serial_efficiency_is_1_over_n(self):
        eff = AmdahlEfficiency(1.0)
        assert eff(4) == pytest.approx(0.25)

    def test_known_value(self):
        # s = 0.1, N = 10: speedup = 1/(0.1 + 0.09) = 5.263; eps = 0.5263.
        eff = AmdahlEfficiency(0.1)
        assert eff(10) == pytest.approx(1.0 / (0.1 + 0.09) / 10.0)

    @given(
        s=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=1, max_value=64),
    )
    def test_bounded_and_decreasing(self, s, n):
        eff = AmdahlEfficiency(s)
        value = eff(n)
        # Upper bound up to floating-point rounding at s = 0.
        assert 0.0 < value <= 1.0 + 1e-12
        if n > 1:
            assert value <= eff(n - 1) + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AmdahlEfficiency(-0.1)
        with pytest.raises(ConfigurationError):
            AmdahlEfficiency(1.1)


class TestCommunicationOverheadEfficiency:
    def test_n1_is_one(self):
        assert CommunicationOverheadEfficiency(0.5)(1) == 1.0

    def test_zero_overhead_is_perfect(self):
        eff = CommunicationOverheadEfficiency(0.0)
        assert eff(16) == 1.0

    def test_decreasing_in_n(self):
        eff = CommunicationOverheadEfficiency(0.05, growth=1.0)
        values = [eff(n) for n in (2, 4, 8, 16, 32)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_growth_exponent_effect(self):
        gentle = CommunicationOverheadEfficiency(0.05, growth=0.5)
        harsh = CommunicationOverheadEfficiency(0.05, growth=1.5)
        assert gentle(16) > harsh(16)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CommunicationOverheadEfficiency(-1.0)
        with pytest.raises(ConfigurationError):
            CommunicationOverheadEfficiency(0.1, growth=0.0)


class TestMeasuredEfficiency:
    def test_exact_table_lookup(self):
        eff = MeasuredEfficiency({2: 0.9, 4: 0.8})
        assert eff(2) == 0.9
        assert eff(4) == 0.8
        assert eff(1) == 1.0

    def test_interpolation_between_points(self):
        eff = MeasuredEfficiency({2: 0.9, 8: 0.6})
        value = eff(4)
        assert 0.6 < value < 0.9
        # Log-linear in N: N=4 is the geometric midpoint of 2 and 8.
        assert value == pytest.approx(math.sqrt(0.9 * 0.6))

    def test_extrapolation_beyond_table(self):
        eff = MeasuredEfficiency({2: 0.9, 4: 0.8, 8: 0.65, 16: 0.5})
        beyond = eff(32)
        assert 0.0 < beyond < 0.5

    def test_superlinear_entries_allowed(self):
        eff = MeasuredEfficiency({2: 1.1, 4: 1.05})
        assert eff(2) == 1.1

    def test_sample_application_matches_figure1_marks(self):
        assert SAMPLE_APPLICATION(2) == 0.9
        assert SAMPLE_APPLICATION(4) == 0.8
        assert SAMPLE_APPLICATION(8) == 0.65
        assert SAMPLE_APPLICATION(16) == 0.5

    def test_table_property_includes_n1(self):
        eff = MeasuredEfficiency({2: 0.9})
        assert eff.table == {1: 1.0, 2: 0.9}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MeasuredEfficiency({})
        with pytest.raises(ConfigurationError):
            MeasuredEfficiency({2: -0.5})
        with pytest.raises(ConfigurationError):
            MeasuredEfficiency({0: 0.5})

    @given(n=st.integers(min_value=1, max_value=64))
    def test_always_positive(self, n):
        assert SAMPLE_APPLICATION(n) > 0
