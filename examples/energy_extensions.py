#!/usr/bin/env python
"""Beyond the paper: energy optimization and per-core DVFS.

Two extensions the paper's own discussion points toward:

1. **Scenario III** — instead of fixing performance (Scenario I) or
   power (Scenario II), minimise *energy* or *energy-delay product* over
   the analytical model;
2. **per-core DVFS** — Section 3.1 calls it beyond scope: slow down
   lightly-loaded threads so everyone hits the barrier together.

Run:  python examples/energy_extensions.py
"""

from repro.core import (
    AnalyticalChipModel,
    EnergyOptimizationScenario,
    SAMPLE_APPLICATION,
)
from repro.harness import (
    ExperimentContext,
    render_table,
    run_percore_dvfs_suite,
)
from repro.tech import NODE_65NM
from repro.workloads import workload_by_name


def scenario3() -> None:
    chip = AnalyticalChipModel(NODE_65NM)
    rows = []
    for weight, label in ((0.0, "energy"), (1.0, "EDP"), (2.0, "ED^2P")):
        scenario = EnergyOptimizationScenario(chip, delay_weight=weight)
        best = scenario.best_configuration(SAMPLE_APPLICATION, (1, 2, 4, 8, 16))
        rows.append(
            [
                label,
                best.n,
                best.frequency_hz / 1e9,
                best.relative_energy,
                best.relative_time,
            ]
        )
    print(
        render_table(
            ["objective", "best N", "f* (GHz)", "E / E_nom", "T / T_nom"],
            rows,
            title="Scenario III (analytical): what should we minimise?",
        )
    )
    print(
        "Pure energy doesn't care about cores (same work either way);\n"
        "delay-weighted objectives buy parallelism.\n"
    )


def percore_dvfs(context: ExperimentContext) -> None:
    apps = [workload_by_name(a) for a in ("Cholesky", "Volrend", "Water-Sp")]
    results = run_percore_dvfs_suite(context, apps, n_threads=8)
    print(
        render_table(
            ["app", "saving", "slowdown", "core frequencies (GHz)"],
            [
                [
                    r.app,
                    f"{r.energy_saving:.1%}",
                    r.slowdown,
                    " ".join(f"{f / 1e9:.1f}" for f in r.core_frequencies_hz),
                ]
                for r in results
            ],
            title="Per-core DVFS: slow the lightly-loaded threads",
        )
    )
    print("Imbalanced applications (Cholesky) have the most slack to harvest.\n")


def main() -> None:
    scenario3()
    print("Building the experiment context (calibration microbenchmark)...\n")
    context = ExperimentContext(workload_scale=0.25)
    percore_dvfs(context)


if __name__ == "__main__":
    main()
