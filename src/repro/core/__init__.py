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

from repro.core.efficiency import (
    EfficiencyCurve,
    ConstantEfficiency,
    AmdahlEfficiency,
    CommunicationOverheadEfficiency,
    MeasuredEfficiency,
    SAMPLE_APPLICATION,
)
from repro.core.perfmodel import (
    ExecutionTimeModel,
    nominal_parallel_efficiency,
    iso_performance_frequency,
    speedup_from_frequency,
)
from repro.core.powermodel import AnalyticalChipModel, PowerBreakdown, OperatingPoint
from repro.core.scenario1 import PowerOptimizationScenario, Scenario1Point
from repro.core.scenario2 import PerformanceOptimizationScenario, Scenario2Point
from repro.core.scenario3 import EnergyOptimizationScenario, Scenario3Point
from repro.core.sweeps import (
    figure1_rows,
    figure1_sweep,
    figure2_rows,
    figure2_sweep,
    Figure1Curve,
    Figure1Row,
    Figure2Curve,
    Figure2Row,
)

__all__ = [
    "EfficiencyCurve",
    "ConstantEfficiency",
    "AmdahlEfficiency",
    "CommunicationOverheadEfficiency",
    "MeasuredEfficiency",
    "SAMPLE_APPLICATION",
    "ExecutionTimeModel",
    "nominal_parallel_efficiency",
    "iso_performance_frequency",
    "speedup_from_frequency",
    "AnalyticalChipModel",
    "PowerBreakdown",
    "OperatingPoint",
    "PowerOptimizationScenario",
    "Scenario1Point",
    "PerformanceOptimizationScenario",
    "Scenario2Point",
    "EnergyOptimizationScenario",
    "Scenario3Point",
    "figure1_sweep",
    "figure2_sweep",
    "Figure1Curve",
    "Figure1Row",
    "Figure2Curve",
    "Figure2Row",
    "figure1_rows",
    "figure2_rows",
]
