#!/usr/bin/env python
"""Beyond the paper: energy optimization.

**Scenario III** — instead of fixing performance (Scenario I) or power
(Scenario II), minimise *energy* or *energy-delay product* over the
analytical model, the metric the paper's related work optimises.

Run:  python examples/energy_extensions.py
"""

from repro.core import (
    AnalyticalChipModel,
    EnergyOptimizationScenario,
    SAMPLE_APPLICATION,
)
from repro.harness import render_table
from repro.tech import NODE_65NM


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


if __name__ == "__main__":
    scenario3()
