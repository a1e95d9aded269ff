"""Process-technology models: node parameters, alpha-power law, leakage.

This subpackage provides the device-level substrate of the paper's
analytical model (Section 2.1):

* :class:`~repro.tech.technology.TechnologyNode` — per-node constants
  (nominal Vdd, threshold voltage, nominal frequency, static/dynamic power
  split) for the two process technologies the paper studies, 130 nm and
  65 nm, plus the alpha-power-law frequency/voltage relation (Eq. 1).
* :class:`~repro.tech.technology.VFTable` — a discrete
  voltage/frequency operating-point table in the style of the Intel
  Pentium M datasheet the paper's experimental study uses [18].
* :mod:`~repro.tech.leakage` — a physical (BSIM-like) leakage-current
  model and the curve-fitted ``H(V, T)`` multiplier of Eq. 3, together with
  the fitting procedure that stands in for the paper's HSpice validation.
"""

import importlib

#: The names docs/API.md, the README and the examples import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "TechnologyNode": "repro.tech.technology",
    "VFTable": "repro.tech.technology",
    "NODE_130NM": "repro.tech.technology",
    "NODE_65NM": "repro.tech.technology",
    "PhysicalLeakageModel": "repro.tech.leakage",
    "LeakageFit": "repro.tech.leakage",
    "fit_leakage_curve": "repro.tech.leakage",
    "default_leakage_multiplier": "repro.tech.leakage",
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
