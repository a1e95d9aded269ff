"""Experiment pipelines for the paper's evaluation section (Section 4).

* :mod:`~repro.harness.context` — shared infrastructure: the Table 1
  machine, thermal model, Wattch energies, the Section 3.3 calibration,
  and the Pentium-M-style V/f table.
* :mod:`~repro.harness.profiling` — :func:`simulate_point`, the one
  way the pipelines simulate an (N, f) point, and the nominal-V/f
  profiles behind each application's nominal-efficiency curve
  (Section 4.1's first step).
* :mod:`~repro.harness.scenario1` — the experimental power-optimization
  pipeline behind Figure 3's five panels.
* :mod:`~repro.harness.scenario2` — the experimental
  performance-under-budget pipeline behind Figure 4, a view of the
  :mod:`~repro.harness.optimizer` budget search.
* :mod:`~repro.harness.tables` — plain-text rendering of the
  paper-style tables and series.
* :mod:`~repro.harness.executor` — the parallel sweep executor and its
  memoizing, content-addressed result cache; every experiment pipeline
  above fans its independent points out through it.
"""

from repro.harness.context import ExperimentContext
from repro.harness.executor import (
    PointOutcome,
    ResultCache,
    SweepExecutor,
    SweepFailure,
    config_key,
)
from repro.harness.profiling import (
    SimPointRow,
    SimPointTask,
    profile_rows,
    simulate_point,
)
from repro.harness.scenario1 import Scenario1Row, run_scenario1
from repro.harness.scenario2 import Scenario2Row, run_scenario2
from repro.harness.optimizer import (
    MaxSpeedupUnderBudget,
    MinEnergyDelay,
    MinPowerAtIsoPerformance,
    OBJECTIVES,
    OptimizerCampaign,
    OptimizerRow,
    objective_by_name,
    run_optimizer,
)
from repro.harness.percore import (
    PerCoreDVFSResult,
    plan_core_frequencies,
    run_percore_dvfs,
    run_percore_dvfs_suite,
)
from repro.harness.compare import (
    AgreementPoint,
    AgreementSummary,
    compare_scenario1,
)
from repro.harness.store import load_results, save_results
from repro.harness.asciichart import bar_chart, xy_chart
from repro.harness.tables import render_table
from repro.telemetry.record import KernelAggregate

__all__ = [
    "ExperimentContext",
    "SweepExecutor",
    "ResultCache",
    "PointOutcome",
    "SweepFailure",
    "config_key",
    "KernelAggregate",
    "SimPointRow",
    "SimPointTask",
    "profile_rows",
    "simulate_point",
    "Scenario1Row",
    "run_scenario1",
    "Scenario2Row",
    "run_scenario2",
    "MaxSpeedupUnderBudget",
    "MinEnergyDelay",
    "MinPowerAtIsoPerformance",
    "OBJECTIVES",
    "OptimizerCampaign",
    "OptimizerRow",
    "objective_by_name",
    "run_optimizer",
    "PerCoreDVFSResult",
    "plan_core_frequencies",
    "run_percore_dvfs",
    "run_percore_dvfs_suite",
    "AgreementPoint",
    "AgreementSummary",
    "compare_scenario1",
    "load_results",
    "save_results",
    "bar_chart",
    "xy_chart",
    "render_table",
]
