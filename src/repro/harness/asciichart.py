"""Terminal-friendly ASCII charts for the figure harnesses.

The environment has no plotting stack, so the examples and benchmarks
render figures as character grids.  Two chart types cover the paper:

* :func:`xy_chart` — scatter/line families on a numeric plane
  (Figure 1's power-vs-efficiency curves, Figure 2's speedup-vs-N);
* :func:`bar_chart` — grouped horizontal bars (Figure 3's per-app
  panels);
* :func:`sparkline` — one-line level strip for the fields of a
  sweep's point rows (``repro trace timeline``).

All return plain strings; callers print them.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError

#: Marker cycle for series.
MARKERS = "ox+*#@%&"

#: Density ramp for :func:`sparkline`, low to high.
SPARK_LEVELS = " .:-=+*#%@"


def xy_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
    x_range: Tuple[float, float] | None = None,
    y_range: Tuple[float, float] | None = None,
) -> str:
    """Plot families of (x, y) points onto a character grid.

    Ranges default to the data's bounding box (with a small margin on
    the y side).  Points outside an explicit range are clipped away.
    """
    if not series or all(len(points) == 0 for points in series.values()):
        raise ConfigurationError("xy_chart needs at least one point")
    if width < 16 or height < 4:
        raise ConfigurationError("chart too small to render")

    xs = [x for points in series.values() for x, _ in points]
    ys = [y for points in series.values() for _, y in points]
    x_lo, x_hi = x_range if x_range else (min(xs), max(xs))
    if y_range:
        y_lo, y_hi = y_range
    else:
        y_lo, y_hi = min(ys), max(ys)
        pad = 0.05 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo or y_hi <= y_lo:
        raise ConfigurationError("degenerate chart range")

    grid = [[" "] * width for _ in range(height)]
    for (label, points), marker in zip(series.items(), MARKERS):
        for x, y in points:
            if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                continue
            col = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = round((1.0 - (y - y_lo) / (y_hi - y_lo)) * (height - 1))
            grid[row][col] = marker

    lines: List[str] = []
    for i, row in enumerate(grid):
        y_value = y_hi - (y_hi - y_lo) * i / (height - 1)
        prefix = f"{y_value:>8.2f} |" if i % 4 == 0 or i == height - 1 else "         |"
        lines.append(prefix + "".join(row))
    lines.append("          " + "-" * width)
    lines.append(
        f"          {x_lo:<.3g}" + " " * max(1, width - 16) + f"{x_hi:>.3g}"
    )
    if x_label:
        lines.append(f"          x: {x_label}")
    if y_label:
        lines.insert(0, f"  y: {y_label}")
    legend = "  ".join(
        f"{marker}={label}" for (label, _), marker in zip(series.items(), MARKERS)
    )
    lines.append("          " + legend)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a value series as a one-line density strip.

    Values are scaled to the series' own min/max and mapped onto
    :data:`SPARK_LEVELS`; a flat series renders at the middle level so
    a constant 80 °C does not look like zero.  Series longer than
    ``width`` are resampled by bucket mean, so the strip always fits
    one terminal line.
    """
    if not values:
        raise ConfigurationError("sparkline needs at least one value")
    if width < 1:
        raise ConfigurationError("sparkline width must be >= 1")
    points = list(values)
    if len(points) > width:
        buckets: List[float] = []
        for i in range(width):
            lo = i * len(points) // width
            hi = max(lo + 1, (i + 1) * len(points) // width)
            chunk = points[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        points = buckets
    v_lo, v_hi = min(points), max(points)
    if v_hi <= v_lo:
        return SPARK_LEVELS[len(SPARK_LEVELS) // 2] * len(points)
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[round((v - v_lo) / (v_hi - v_lo) * top)] for v in points
    )


def bar_chart(
    values: Mapping[str, float],
    width: int = 48,
    reference: float | None = None,
) -> str:
    """Horizontal bars, one per labelled value.

    ``reference`` draws a marker column at that value (e.g. the
    normalized-power breakeven of 1.0).
    """
    if not values:
        raise ConfigurationError("bar_chart needs at least one value")
    if any(v < 0 for v in values.values()):
        raise ConfigurationError("bar_chart values must be non-negative")
    v_max = max(max(values.values()), reference or 0.0) or 1.0
    label_width = max(len(label) for label in values)

    lines = []
    for label, value in values.items():
        bar_len = round(value / v_max * width)
        bar = "=" * bar_len
        if reference is not None:
            ref_col = min(width - 1, round(reference / v_max * width))
            padded = list(bar.ljust(width))
            padded[ref_col] = "|" if ref_col >= bar_len else "+"
            bar = "".join(padded).rstrip()
        lines.append(f"{label.rjust(label_width)} {bar} {value:.3g}")
    return "\n".join(lines)
