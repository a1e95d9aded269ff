"""A harness-side unit slip (analyzer fixture; never imported).

``harness/`` is outside the determinism scope, but the unit rules cover
every file of the tree.
"""


def row_total(wall_s: float, clock_hz: float) -> float:
    return wall_s + clock_hz  # DIM-MISMATCH (outside power/, thermal/, tech/)
