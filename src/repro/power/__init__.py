"""Power modelling for the experimental study (Section 3.3).

Four pieces, mirroring the paper's toolchain:

* :mod:`~repro.power.wattch` — per-event dynamic energies (the Wattch
  [3] stand-in), aggregated over the simulator's activity counters, with
  clock gating for idle cycles and V^2 supply scaling.
* :mod:`~repro.power.static` — static power as a fraction of dynamic
  power, exponentially dependent on temperature [5].
* :mod:`~repro.power.calibration` — the paper's renormalisation: the
  max-power microbenchmark connects Wattch's wattage scale to HotSpot's
  physically anchored maximum operational power.
* :mod:`~repro.power.chippower` — the full-chip integration: activity
  counters -> per-block dynamic power -> thermal fixed point -> total
  power, power density, and average temperature (L2 excluded from the
  density/temperature averages, included in total power).
"""

import importlib

#: The names docs/API.md, the README and the examples import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "UnitEnergies": "repro.power.wattch",
    "WattchModel": "repro.power.wattch",
    "StaticPowerModel": "repro.power.static",
    "PowerCalibration": "repro.power.calibration",
    "calibrate_power_model": "repro.power.calibration",
    "ChipPowerModel": "repro.power.chippower",
    "ChipPowerResult": "repro.power.chippower",
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
