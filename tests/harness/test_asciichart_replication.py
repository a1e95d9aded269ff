"""Tests for the ASCII chart renderer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.harness.asciichart import SPARK_LEVELS, bar_chart, sparkline, xy_chart


class TestXYChart:
    def test_renders_markers_and_legend(self):
        text = xy_chart({"a": [(0, 0), (1, 1)], "b": [(0.5, 0.5)]})
        assert "o=a" in text
        assert "x=b" in text
        assert "o" in text.splitlines()[-2] or "o" in text

    def test_axis_labels(self):
        text = xy_chart({"s": [(0, 0), (1, 2)]}, x_label="eps", y_label="power")
        assert "x: eps" in text
        assert "y: power" in text

    def test_explicit_ranges_clip(self):
        text = xy_chart(
            {"s": [(0.5, 0.5), (10.0, 10.0)]},
            x_range=(0.0, 1.0),
            y_range=(0.0, 1.0),
        )
        # The out-of-range point is silently dropped; chart still renders
        # (count markers in the grid, excluding the legend line).
        grid = "\n".join(text.splitlines()[:-1])
        assert grid.count("o") == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            xy_chart({})
        with pytest.raises(ConfigurationError):
            xy_chart({"a": []})

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ConfigurationError):
            xy_chart({"a": [(0, 0)]}, width=4)

    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=30)
    def test_never_crashes_on_finite_points(self, points):
        xs = {x for x, _ in points}
        ys = {y for _, y in points}
        if len(xs) < 2 or len(ys) < 1:
            return  # degenerate ranges are rejected; covered elsewhere
        text = xy_chart({"s": points})
        assert isinstance(text, str)
        assert len(text.splitlines()) >= 6


class TestBarChart:
    def test_bars_scale(self):
        text = bar_chart({"a": 1.0, "b": 2.0}, width=20)
        line_a, line_b = text.splitlines()
        assert line_b.count("=") == 2 * line_a.count("=")

    def test_reference_marker(self):
        text = bar_chart({"a": 0.5}, width=20, reference=1.0)
        assert "|" in text

    def test_values_printed(self):
        text = bar_chart({"fmm": 0.41})
        assert "0.41" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bar_chart({})
        with pytest.raises(ConfigurationError):
            bar_chart({"a": -1.0})


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

