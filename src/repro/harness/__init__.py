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
    KernelAggregate,
    SimPointRow,
    SimPointTask,
    profile_rows,
    simulate_point,
)
from repro.harness.scenario1 import Scenario1Row, run_scenario1
from repro.harness.scenario2 import (
    OverclockRow,
    Scenario2Row,
    run_overclocking_study,
    run_scenario2,
)
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
from repro.harness.designspace import (
    DesignPoint,
    DesignRunRow,
    bus_width_variants,
    interconnect_variants,
    l2_capacity_variants,
    memory_latency_variants,
    sweep_design_parameter,
)
from repro.harness.thermal_transient import ThermalTransient, thermal_step_response
from repro.harness.migration import (
    MigrationResult,
    compare_migration,
    run_activity_migration,
)
from repro.harness.governor import (
    GovernedRun,
    MemorySlackGovernor,
    PerformanceGovernor,
    WindowMeasurement,
    run_governed,
)
from repro.harness.replication import ReplicationSummary, replicate, reseeded
from repro.harness.compare import (
    AgreementPoint,
    AgreementSummary,
    compare_scenario1,
)
from repro.harness.store import load_results, save_results
from repro.harness.asciichart import bar_chart, xy_chart
from repro.harness.tables import render_table

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
    "OverclockRow",
    "run_overclocking_study",
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
    "DesignPoint",
    "DesignRunRow",
    "bus_width_variants",
    "interconnect_variants",
    "l2_capacity_variants",
    "memory_latency_variants",
    "sweep_design_parameter",
    "ThermalTransient",
    "thermal_step_response",
    "MigrationResult",
    "compare_migration",
    "run_activity_migration",
    "GovernedRun",
    "MemorySlackGovernor",
    "PerformanceGovernor",
    "WindowMeasurement",
    "run_governed",
    "ReplicationSummary",
    "replicate",
    "reseeded",
    "AgreementPoint",
    "AgreementSummary",
    "compare_scenario1",
    "load_results",
    "save_results",
    "bar_chart",
    "xy_chart",
    "render_table",
]
