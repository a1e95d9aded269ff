"""Compact thermal modelling (the HotSpot [38] stand-in).

The paper uses HotSpot twice:

* in the **analytical** study (Section 2.2) to approximate the operating
  temperature of each (N, V, f) configuration so the leakage term of Eq. 8
  can respond to temperature, and
* in the **experimental** study (Section 3.3) to estimate block and
  average die temperatures from the simulator's power map.

HotSpot itself is a compact RC thermal network over a floorplan; this
subpackage implements the same idea from scratch:

* :mod:`~repro.thermal.floorplan` — rectangular block floorplans, with
  ready-made EV6-like core and CMP die layouts,
* :mod:`~repro.thermal.rcnetwork` — the thermal network builder and
  its steady-state (linear solve) solver,
* :mod:`~repro.thermal.hotspot` — the :class:`HotSpotModel` facade that
  turns a power map into block temperatures,
* :mod:`~repro.thermal.compact` — a two-parameter lumped model used by
  the analytical scenarios, where only the average die temperature matters.
"""

from repro.thermal.floorplan import (
    Block,
    Floorplan,
    ev6_core_floorplan,
    cmp_floorplan,
)
from repro.thermal.rcnetwork import ThermalRCNetwork
from repro.thermal.hotspot import HotSpotModel, ThermalResult
from repro.thermal.compact import CompactThermalModel

__all__ = [
    "Block",
    "Floorplan",
    "ev6_core_floorplan",
    "cmp_floorplan",
    "ThermalRCNetwork",
    "HotSpotModel",
    "ThermalResult",
    "CompactThermalModel",
]
