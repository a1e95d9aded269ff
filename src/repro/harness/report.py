"""One-shot experiment report: every result the paper plots, as markdown.

``generate_report`` runs the analytical sweeps and (optionally) the
experimental pipelines on a shared context and renders a self-contained
markdown document — the artefact a user keeps from a reproduction run.
The ``repro report`` CLI command wraps it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.efficiency import SAMPLE_APPLICATION
from repro.core.powermodel import AnalyticalChipModel
from repro.core.scenario3 import EnergyOptimizationScenario
from repro.core.sweeps import figure1_sweep, figure2_sweep
from repro.harness.context import ExperimentContext
from repro.harness.scenario1 import run_scenario1
from repro.harness.scenario2 import run_scenario2
from repro.tech.technology import NODE_130NM, NODE_65NM
from repro.units import GIGA
from repro.workloads.splash2 import workload_by_name


@dataclass(frozen=True)
class ReportOptions:
    """What to include and how hard to run."""

    include_experimental: bool = True
    workload_scale: float = 0.25
    scenario1_apps: Sequence[str] = ("FMM", "LU", "Ocean", "Cholesky", "Radix")
    scenario2_apps: Sequence[str] = ("FMM", "Cholesky", "Radix")
    scenario2_core_counts: Sequence[int] = (1, 2, 4, 8, 12, 16)


def _markdown_table(headers: Sequence[str], rows) -> str:
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    out = io.StringIO()
    out.write("| " + " | ".join(headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(fmt(c) for c in row) + " |\n")
    return out.getvalue()


def _analytical_sections(out: io.StringIO, executor=None) -> None:
    out.write("## Figure 1 — analytical power optimization\n\n")
    for node in (NODE_130NM, NODE_65NM):
        chip = AnalyticalChipModel(node)
        curves = figure1_sweep(chip, efficiency_points=41, executor=executor)
        rows = []
        for curve in curves:
            def nearest(target, curve=curve):
                candidates = [
                    (abs(eps - target), power)
                    for eps, power in zip(
                        curve.efficiencies, curve.normalized_power
                    )
                ]
                if not candidates:
                    return float("nan")
                distance, power = min(candidates)
                return power if distance < 0.02 else float("nan")

            rows.append([curve.n, nearest(0.5), nearest(0.75), nearest(1.0)])
        out.write(f"### {node.name}\n\n")
        out.write(
            _markdown_table(["N", "P@eps=0.5", "P@eps=0.75", "P@eps=1.0"], rows)
        )
        out.write("\n")

    out.write("## Figure 2 — analytical speedup under the power budget\n\n")
    for node in (NODE_130NM, NODE_65NM):
        curve = figure2_sweep(AnalyticalChipModel(node), executor=executor)
        n_peak, s_peak = curve.peak()
        lookup = dict(zip(curve.core_counts, curve.speedups))
        rows = [[n, lookup[n]] for n in (1, 2, 4, 8, 16, 24, 32) if n in lookup]
        out.write(f"### {node.name} (peak {s_peak:.2f}x at N = {n_peak})\n\n")
        out.write(_markdown_table(["N", "speedup"], rows))
        out.write("\n")

    out.write("## Scenario III (extension) — energy-optimal points\n\n")
    scenario = EnergyOptimizationScenario(AnalyticalChipModel(NODE_65NM))
    points = scenario.energy_curve(SAMPLE_APPLICATION, (1, 2, 4, 8, 16))
    out.write(
        _markdown_table(
            ["N", "f* (GHz)", "E / E_nom", "T / T_nom"],
            [
                [p.n, p.frequency_hz / GIGA, p.relative_energy, p.relative_time]
                for p in points
            ],
        )
    )
    out.write("\n")


def _experimental_sections(
    out: io.StringIO, options: ReportOptions, executor=None
) -> None:
    context = ExperimentContext(workload_scale=options.workload_scale)
    out.write(
        f"*Experimental context: workload scale {options.workload_scale}, "
        f"power budget {context.calibration.max_operational_power_w:.1f} W.*\n\n"
    )

    out.write("## Figure 3 — experimental Scenario I\n\n")
    models = [workload_by_name(app) for app in options.scenario1_apps]
    fig3 = run_scenario1(context, models, executor=executor)
    rows = [
        [
            app,
            r.n,
            r.nominal_efficiency,
            r.actual_speedup,
            r.normalized_power,
            r.normalized_power_density,
            r.average_temperature_c,
        ]
        for app, app_rows in fig3.items()
        for r in app_rows
    ]
    out.write(
        _markdown_table(
            ["app", "N", "eps_n", "speedup", "norm P", "norm density", "T (C)"],
            rows,
        )
    )
    out.write("\n")

    out.write("## Figure 4 — experimental Scenario II\n\n")
    models = [workload_by_name(app) for app in options.scenario2_apps]
    fig4 = run_scenario2(
        context, models, core_counts=options.scenario2_core_counts,
        executor=executor,
    )
    rows = [
        [app, r.n, r.nominal_speedup, r.actual_speedup, r.frequency_hz / GIGA, r.power_w]
        for app, app_rows in fig4.items()
        for r in app_rows
    ]
    out.write(
        _markdown_table(
            ["app", "N", "nominal", "actual", "f (GHz)", "P (W)"], rows
        )
    )
    out.write("\n")

    _adaptive_scenario3_section(out, context, options, executor)


def _adaptive_scenario3_section(
    out: io.StringIO, context, options: ReportOptions, executor
) -> None:
    """Scenario III, measured: the adaptive optimizer's min-EDP points.

    The analytical section above searches the closed-form model; this
    one searches the *simulator* with the coarse-to-fine optimizer, so
    the table carries the measured energy-delay optima plus how many
    grid simulations the search avoided.
    """
    from repro.harness.optimizer import MinEnergyDelay, run_optimizer

    out.write("## Scenario III (experimental) — adaptive min-EDP search\n\n")
    models = [workload_by_name(app) for app in options.scenario2_apps]
    campaign = run_optimizer(
        context,
        models,
        MinEnergyDelay(delay_exponent=1),
        core_counts=options.scenario2_core_counts,
        executor=executor,
    )
    out.write(
        _markdown_table(
            ["app", "N", "f* (GHz)", "EDP (J*s)", "speedup", "P (W)"],
            [
                [
                    r.app,
                    r.n,
                    r.frequency_hz / GIGA,
                    f"{r.metric:.3e}",
                    r.speedup,
                    r.total_power_w,
                ]
                for r in campaign.rows
            ],
        )
    )
    out.write(
        f"\nAdaptive search: {campaign.evaluations} grid evaluations of "
        f"{campaign.exhaustive_evaluations} exhaustive "
        f"({campaign.simulations_saved} simulations saved) in "
        f"{campaign.rounds} refinement round(s).\n\n"
    )


def _robustness_section(out: io.StringIO, executor) -> None:
    """Degraded-mode disclosure: which points, if any, are missing.

    A report built from a partial campaign must say so in the artefact
    itself — a reader comparing tables against the paper cannot be left
    to guess that a row is absent because its point was quarantined.
    """
    from repro.harness.store import failed_point_rows

    out.write("## Robustness\n\n")
    stats = executor.stats
    rows = failed_point_rows(executor.failed)
    # Deterministic library failures (e.g. infeasible operating points
    # outside the sweep's valid region) are expected physics, not
    # degradation; only retryable failures mean the run lost data.
    quarantined = [r for r in rows if r.retryable]
    infeasible = [r for r in rows if not r.retryable]
    total = stats.evaluated + stats.cache_hits
    if infeasible:
        out.write(
            f"{len(infeasible)} point(s) were deterministically "
            "infeasible (expected outside the valid operating region).\n\n"
        )
    if not quarantined:
        out.write(
            f"All {total - len(rows)} feasible sweep points completed; "
            "no transient failures.\n"
        )
    else:
        out.write(
            f"**Degraded run**: {len(quarantined)} point(s) exhausted their "
            "retry budget; the tables above omit them.\n\n"
        )
        out.write(
            _markdown_table(
                ["point", "error", "attempts", "message"],
                [
                    [r.index, r.error_type, r.attempts, r.message]
                    for r in quarantined
                ],
            )
        )
        out.write("\n")


def generate_report(
    options: Optional[ReportOptions] = None, executor=None
) -> str:
    """Render the full markdown report; returns the document text.

    All sweeps share ``executor`` (a default inline one when omitted),
    so the closing robustness section accounts for every point the
    report ran — including, under a fault-tolerant executor, the ones
    that were quarantined and are therefore missing from the tables.
    """
    options = options or ReportOptions()
    if executor is None:
        from repro.harness.executor import SweepExecutor

        executor = SweepExecutor()
    out = io.StringIO()
    out.write(
        "# repro experiment report\n\n"
        "Reproduction of Li & Martinez, *Power-Performance Implications of "
        "Thread-level Parallelism on Chip Multiprocessors* (ISPASS 2005).\n\n"
    )
    _analytical_sections(out, executor)
    if options.include_experimental:
        _experimental_sections(out, options, executor)
    _robustness_section(out, executor)
    return out.getvalue()
