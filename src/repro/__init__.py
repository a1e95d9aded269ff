"""repro — a reproduction of Li & Martinez, "Power-Performance
Implications of Thread-level Parallelism on Chip Multiprocessors"
(ISPASS 2005).

The library has two halves, mirroring the paper:

**Analytical model** (:mod:`repro.core`, Section 2): parallel efficiency
+ granularity + DVFS in closed form over CMOS power equations.

    >>> from repro import AnalyticalChipModel, PowerOptimizationScenario
    >>> from repro.tech import NODE_65NM
    >>> chip = AnalyticalChipModel(NODE_65NM)
    >>> point = PowerOptimizationScenario(chip).solve(n=8, eps_n=0.8)
    >>> point.normalized_power < 1.0
    True

**Experimental model** (:mod:`repro.sim` / :mod:`repro.workloads` /
:mod:`repro.power` / :mod:`repro.thermal` / :mod:`repro.harness`,
Sections 3-4): a 16-way EV6-class CMP simulator with MESI coherence,
Wattch-style power, HotSpot-style thermals, and synthetic SPLASH-2
workload models, driven by the Figure 3 / Figure 4 pipelines.

    >>> from repro.harness import ExperimentContext, run_scenario1
    >>> from repro.workloads import workload_by_name
    >>> ctx = ExperimentContext(workload_scale=0.05)   # doctest: +SKIP
    >>> rows = run_scenario1(ctx, [workload_by_name("FMM")])  # doctest: +SKIP
"""

import importlib

__version__ = "1.0.0"

#: The names docs/API.md, the README and the examples import from the
#: top level, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "AnalyticalChipModel": "repro.core.powermodel",
    "AmdahlEfficiency": "repro.core.efficiency",
    "CommunicationOverheadEfficiency": "repro.core.efficiency",
    "ConstantEfficiency": "repro.core.efficiency",
    "MeasuredEfficiency": "repro.core.efficiency",
    "SAMPLE_APPLICATION": "repro.core.efficiency",
    "PowerOptimizationScenario": "repro.core.scenario1",
    "PerformanceOptimizationScenario": "repro.core.scenario2",
    "figure1_sweep": "repro.core.sweeps",
    "figure2_sweep": "repro.core.sweeps",
    "ConfigurationError": "repro.errors",
    "ConvergenceError": "repro.errors",
    "InfeasibleOperatingPoint": "repro.errors",
    "ReproError": "repro.errors",
    "SimulationError": "repro.errors",
    "WorkloadError": "repro.errors",
    "NODE_130NM": "repro.tech.technology",
    "NODE_65NM": "repro.tech.technology",
    "TechnologyNode": "repro.tech.technology",
    "VFTable": "repro.tech.technology",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
