"""Terminal-friendly ASCII charts.

:func:`sparkline` renders one numeric field of a sweep's point rows as
a one-line level strip (``repro trace timeline``).  It returns a plain
string; the caller prints it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigurationError

#: Density ramp for :func:`sparkline`, low to high.
SPARK_LEVELS = " .:-=+*#%@"


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

