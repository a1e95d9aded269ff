#!/usr/bin/env python
"""Characterise the twelve SPLASH-2 workload models (Table 2).

Runs every application on 1 and 16 cores at nominal V/f and prints the
behavioural signature each model was tuned to: memory-stall fraction, L1
miss rate, CPI, nominal efficiency at 16 cores, lock activity, and the
(renormalised) single-core power — the quantity that decides how much
Scenario II headroom each application has.

Run:  python examples/splash2_characterization.py
"""

from repro.harness import ExperimentContext, render_table
from repro.harness.profiling import profile_rows
from repro.workloads import SPLASH2


def main() -> None:
    print("Building the experiment context (runs the calibration ubench)...")
    context = ExperimentContext(workload_scale=0.2)
    budget = context.calibration.max_operational_power_w
    print(f"  single-core max operational power: {budget:.1f} W\n")

    rows = []
    for model in SPLASH2:
        profile = profile_rows(context, model, (1, 16))
        one = profile[1]
        sixteen = profile.get(16)
        rows.append(
            [
                model.name,
                model.spec.problem_size,
                one.average_cpi,
                one.l1_miss_rate,
                one.memory_stall_fraction,
                (
                    one.execution_time_ps / (16 * sixteen.execution_time_ps)
                    if sixteen
                    else float("nan")
                ),
                one.total_power_w,
                f"{one.total_power_w / budget:.0%}",
            ]
        )

    print(
        render_table(
            [
                "app",
                "problem size (Table 2)",
                "CPI",
                "L1 miss",
                "mem-stall",
                "eps_n(16)",
                "P1 (W)",
                "P1/budget",
            ],
            rows,
            title="SPLASH-2 workload models at nominal V/f",
        )
    )

    print(
        "\nThe right-most column explains Figure 4: applications far below\n"
        "the budget (Radix) can add cores at nominal V/f, while those near\n"
        "it (FMM) must throttle immediately."
    )


if __name__ == "__main__":
    main()
