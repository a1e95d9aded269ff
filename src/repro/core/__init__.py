"""The paper's analytical power-performance model (Section 2).

This package quantifies, for a CMP running one parallel application, the
interaction of three knobs:

* **granularity** — number of active cores ``N``,
* **parallel efficiency** — the application's nominal efficiency
  ``eps_n(N)`` (Eq. 6), measured at fixed frequency,
* **DVFS** — chip-wide voltage/frequency scaling under the alpha-power
  law (Eq. 1) with temperature-dependent leakage (Eqs. 2-4).

Two dual solvers implement the paper's scenarios:

* :mod:`~repro.core.scenario1` — *power optimization*: hold performance
  at the 1-core nominal level, minimise power (Section 2.2, Figure 1);
* :mod:`~repro.core.scenario2` — *performance optimization*: hold power
  at the 1-core nominal budget, maximise speedup (Section 2.3, Figure 2).

:mod:`~repro.core.sweeps` packages the exact parameter sweeps behind
Figures 1 and 2 so the benchmark harness and the examples can regenerate
them with one call.
"""

import importlib

#: The names docs/API.md, the README and the examples import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "SAMPLE_APPLICATION": "repro.core.efficiency",
    "ExecutionTimeModel": "repro.core.perfmodel",
    "nominal_parallel_efficiency": "repro.core.perfmodel",
    "iso_performance_frequency": "repro.core.perfmodel",
    "speedup_from_frequency": "repro.core.perfmodel",
    "AnalyticalChipModel": "repro.core.powermodel",
    "PowerOptimizationScenario": "repro.core.scenario1",
    "PerformanceOptimizationScenario": "repro.core.scenario2",
    "Scenario2Point": "repro.core.scenario2",
    "EnergyOptimizationScenario": "repro.core.scenario3",
    "figure1_rows": "repro.core.sweeps",
    "figure1_sweep": "repro.core.sweeps",
    "figure2_rows": "repro.core.sweeps",
    "figure2_sweep": "repro.core.sweeps",
    "Figure1Row": "repro.core.sweeps",
    "Figure2Row": "repro.core.sweeps",
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
