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

import importlib

#: The names docs/API.md, the README and the examples import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "Block": "repro.thermal.floorplan",
    "Floorplan": "repro.thermal.floorplan",
    "ev6_core_floorplan": "repro.thermal.floorplan",
    "cmp_floorplan": "repro.thermal.floorplan",
    "ThermalRCNetwork": "repro.thermal.rcnetwork",
    "HotSpotModel": "repro.thermal.hotspot",
    "ThermalResult": "repro.thermal.hotspot",
    "CompactThermalModel": "repro.thermal.compact",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
