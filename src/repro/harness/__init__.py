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

import importlib

#: The names docs/API.md, the README and the examples import from this
#: package, each loaded from the submodule that defines it on first use.
_EXPORTS = {
    "ExperimentContext": "repro.harness.context",
    "SweepExecutor": "repro.harness.executor",
    "ResultCache": "repro.harness.executor",
    "PointOutcome": "repro.harness.executor",
    "SweepFailure": "repro.harness.executor",
    "config_key": "repro.harness.executor",
    "KernelAggregate": "repro.telemetry.record",
    "SimPointRow": "repro.harness.profiling",
    "SimPointTask": "repro.harness.profiling",
    "profile_rows": "repro.harness.profiling",
    "simulate_point": "repro.harness.profiling",
    "Scenario1Row": "repro.harness.scenario1",
    "run_scenario1": "repro.harness.scenario1",
    "Scenario2Row": "repro.harness.scenario2",
    "run_scenario2": "repro.harness.scenario2",
    "OBJECTIVES": "repro.harness.optimizer",
    "OptimizerCampaign": "repro.harness.optimizer",
    "OptimizerRow": "repro.harness.optimizer",
    "run_optimizer": "repro.harness.optimizer",
    "AgreementSummary": "repro.harness.compare",
    "compare_scenario1": "repro.harness.compare",
    "load_results": "repro.harness.store",
    "save_results": "repro.harness.store",
    "render_table": "repro.harness.tables",
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
