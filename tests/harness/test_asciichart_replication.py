"""Tests for the ASCII chart renderer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.harness.asciichart import SPARK_LEVELS, sparkline


class TestSparkline:
    def test_extremes_map_to_the_ramp_ends(self):
        text = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(text) == 4
        assert text[0] == SPARK_LEVELS[0]
        assert text[-1] == SPARK_LEVELS[-1]
        levels = [SPARK_LEVELS.index(c) for c in text]
        assert levels == sorted(levels)

    def test_flat_series_renders_at_the_middle_level(self):
        # A constant 80 °C must not look like zero.
        text = sparkline([80.0, 80.0, 80.0])
        assert text == SPARK_LEVELS[len(SPARK_LEVELS) // 2] * 3

    def test_long_series_resample_by_bucket_mean(self):
        text = sparkline(list(range(120)), width=30)
        assert len(text) == 30
        levels = [SPARK_LEVELS.index(c) for c in text]
        assert levels == sorted(levels)  # ramp survives the resample

    def test_short_series_keep_their_length(self):
        assert len(sparkline([1.0, 2.0], width=60)) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sparkline([])
        with pytest.raises(ConfigurationError):
            sparkline([1.0], width=0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
        ),
        st.integers(min_value=1, max_value=80),
    )
    def test_always_fits_the_width_and_the_ramp(self, values, width):
        text = sparkline(values, width=width)
        assert len(text) == min(len(values), width)
        assert set(text) <= set(SPARK_LEVELS)

