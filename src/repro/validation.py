"""Self-check: validate the reproduction's claims programmatically.

``repro verify`` runs a checklist of the shape claims recorded in
EXPERIMENTS.md — the same assertions the benchmarks enforce, packaged as
a quick, user-facing health check.  Each check returns a
:class:`CheckResult`; the CLI prints a pass/fail table and exits
non-zero on any failure.

Analytical checks run in seconds; the experimental group simulates a
reduced-scale subset and takes tens of seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name: str, fn: Callable[[], str]) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        return CheckResult(name, True, detail, time.perf_counter() - start)
    except AssertionError as exc:
        return CheckResult(name, False, str(exc), time.perf_counter() - start)


# -- analytical checks --------------------------------------------------------


def _leakage_fit() -> str:
    from repro.tech.leakage import default_leakage_multiplier
    from repro.tech.technology import NODE_130NM, NODE_65NM

    errors = {}
    for node in (NODE_130NM, NODE_65NM):
        fit = default_leakage_multiplier(node)
        assert fit.max_error < 0.10, (
            f"{node.name} fit error {fit.max_error:.3f} exceeds the paper's band"
        )
        errors[node.name] = fit.max_error
    return ", ".join(f"{k}: max {v:.1%}" for k, v in errors.items())


def _figure1_shape() -> str:
    from repro.core.powermodel import AnalyticalChipModel
    from repro.core.scenario1 import PowerOptimizationScenario
    from repro.tech.technology import NODE_130NM, NODE_65NM

    for node in (NODE_130NM, NODE_65NM):
        scenario = PowerOptimizationScenario(AnalyticalChipModel(node))
        powers = {n: scenario.solve(n, 1.0).normalized_power for n in (2, 4, 8, 16, 32)}
        assert all(p < 1.0 for p in powers.values()), (
            f"{node.name}: not all curves save power at eps=1: {powers}"
        )
        assert powers[32] > powers[16], f"{node.name}: static-cost ordering broken"
        assert scenario.breakeven_efficiency(8) < scenario.breakeven_efficiency(2)
    return "savings at eps=1 on every curve; breakeven falls with N"


def _figure2_shape() -> str:
    from repro.core.powermodel import AnalyticalChipModel
    from repro.core.sweeps import figure2_sweep
    from repro.tech.technology import NODE_130NM, NODE_65NM

    c130 = figure2_sweep(AnalyticalChipModel(NODE_130NM))
    c65 = figure2_sweep(AnalyticalChipModel(NODE_65NM))
    n130, s130 = c130.peak()
    n65, s65 = c65.peak()
    assert 4.0 < s130 < 5.0, f"130nm peak {s130:.2f} not 'a little over 4'"
    assert s65 < s130 and n65 <= n130, "65nm must peak lower and earlier"
    tail130 = dict(zip(c130.core_counts, c130.speedups))
    tail65 = dict(zip(c65.core_counts, c65.speedups))
    assert tail65[16] < tail130[16], "65nm must collapse below 130nm"
    return (
        f"130nm peak {s130:.2f}@N={n130}; 65nm peak {s65:.2f}@N={n65}, "
        "collapsing faster"
    )


def _table1_machine() -> str:
    from repro.area import CMPAreaModel, CactiModel
    from repro.area.cacti import L1_GEOMETRY, L2_GEOMETRY

    area = CMPAreaModel()
    assert abs(area.die_area_mm2() - 244.5) < 3.0, (
        f"die {area.die_area_mm2():.1f} mm^2 != Table 1's 244.5"
    )
    cacti = CactiModel(65.0)
    assert cacti.access_cycles(L1_GEOMETRY, 3.2e9) == 2
    assert cacti.access_cycles(L2_GEOMETRY, 3.2e9) == 12
    return f"die {area.die_area_mm2():.1f} mm^2; L1 2-cycle / L2 12-cycle"


def _scenario3_extension() -> str:
    from repro.core.powermodel import AnalyticalChipModel
    from repro.core.scenario3 import EnergyOptimizationScenario
    from repro.tech.technology import NODE_65NM

    point = EnergyOptimizationScenario(AnalyticalChipModel(NODE_65NM)).solve(1, 1.0)
    assert point.relative_energy < 1.0, "energy optimum must beat nominal"
    return f"energy-optimal point saves {1 - point.relative_energy:.0%} energy"


# -- experimental checks -------------------------------------------------------


def _experimental_checks(scale: float) -> List[CheckResult]:
    from repro.harness.context import ExperimentContext
    from repro.harness.scenario1 import run_scenario1
    from repro.harness.scenario2 import run_scenario2
    from repro.workloads.splash2 import workload_by_name

    results: List[CheckResult] = []
    start = time.perf_counter()
    context = ExperimentContext(workload_scale=scale)
    results.append(
        CheckResult(
            "experimental: calibration",
            True,
            f"max operational power {context.calibration.max_operational_power_w:.1f} W",
            time.perf_counter() - start,
        )
    )

    def fig3() -> str:
        rows = run_scenario1(
            context, [workload_by_name("FMM")], core_counts=(1, 2, 4, 8)
        )["FMM"]
        by_n = {r.n: r for r in rows}
        assert all(by_n[n].normalized_power < 1.0 for n in (2, 4, 8))
        assert all(by_n[n].actual_speedup >= 0.9 for n in (2, 4, 8))
        temps = [by_n[n].average_temperature_c for n in (1, 2, 4, 8)]
        assert all(b <= a + 0.5 for a, b in zip(temps, temps[1:]))
        return (
            f"FMM: power {by_n[8].normalized_power:.2f}x at N=8, "
            f"T {temps[0]:.0f}->{temps[-1]:.0f} C"
        )

    results.append(_check("experimental: Figure 3 shape (FMM)", fig3))

    def fig4() -> str:
        rows = run_scenario2(
            context, [workload_by_name("Radix")], core_counts=(1, 2, 4, 8)
        )["Radix"]
        for r in rows:
            assert r.power_w <= r.budget_w * 1.05
            assert r.runs_at_nominal, f"Radix throttled at N={r.n}"
        return "Radix at nominal V/f through N=8 under the budget"

    results.append(_check("experimental: Figure 4 shape (Radix)", fig4))
    return results


def run_verification(
    include_experimental: bool = True,
    scale: float = 0.15,
) -> List[CheckResult]:
    """Run the checklist; returns every check's result."""
    checks: List[CheckResult] = [
        _check("leakage curve fit within the paper's error band", _leakage_fit),
        _check("Table 1 machine (die size, cache latencies)", _table1_machine),
        _check("Figure 1 shape (analytical Scenario I)", _figure1_shape),
        _check("Figure 2 shape (analytical Scenario II)", _figure2_shape),
        _check("Scenario III extension sane", _scenario3_extension),
    ]
    if include_experimental:
        checks.extend(_experimental_checks(scale))
    return checks
