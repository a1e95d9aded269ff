"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's figures to quantify which modelling
ingredients its conclusions actually rest on:

* **leakage temperature feedback** — rerunning Scenario I with the
  thermal coupling frozen at the design temperature shows how much of
  the power savings come from the cooling feedback loop;
* **voltage floor** — sweeping the noise-margin factor moves the
  Figure 2 peak, demonstrating the floor is what caps budget-limited
  speedup;
* **static power share** — sweeping the node's static fraction
  reproduces the 130 nm -> 65 nm -> (projected) 32 nm trend: the more
  leakage-dominated the node, the earlier and lower the speedup peak;
* **projected 32 nm node** — the paper's trend extrapolated one node
  further (dark-silicon foreshadowing).
"""

from dataclasses import replace

import pytest

from repro.core import (
    AnalyticalChipModel,
    ConstantEfficiency,
    PerformanceOptimizationScenario,
    PowerOptimizationScenario,
    figure2_sweep,
)
from repro.harness import render_table
from repro.tech import NODE_130NM, NODE_32NM_PROJECTED, NODE_65NM
from repro.tech.leakage import LeakageFit, default_leakage_multiplier


class _FrozenTemperatureLeakage:
    """A leakage multiplier that ignores temperature (ablation)."""

    def __init__(self, base: LeakageFit, temperature_k: float) -> None:
        self._base = base
        self._temperature_k = temperature_k

    def multiplier(self, v: float, temperature_k: float) -> float:
        return self._base.multiplier(v, self._temperature_k)


def test_ablation_thermal_feedback(benchmark):
    """Scenario I with and without the leakage/temperature feedback."""
    from repro.units import celsius_to_kelvin

    coupled = AnalyticalChipModel(NODE_65NM)
    frozen = AnalyticalChipModel(
        NODE_65NM,
        leakage=_FrozenTemperatureLeakage(
            default_leakage_multiplier(NODE_65NM), celsius_to_kelvin(100.0)
        ),
    )

    def solve_both():
        a = PowerOptimizationScenario(coupled).solve(16, 1.0).normalized_power
        b = PowerOptimizationScenario(frozen).solve(16, 1.0).normalized_power
        return a, b

    with_feedback, without_feedback = benchmark.pedantic(
        solve_both, rounds=1, iterations=1
    )
    print(
        f"\nScenario I, N=16, eps=1: normalized power {with_feedback:.3f} "
        f"(thermal feedback) vs {without_feedback:.3f} (frozen at 100C)"
    )
    # Cooling the die reduces leakage: the coupled model saves more.
    assert with_feedback < without_feedback


@pytest.mark.parametrize("noise_margin", [2.0, 2.7, 3.4, 4.1])
def test_ablation_voltage_floor(benchmark, noise_margin):
    """The Figure 2 peak tracks the voltage floor."""
    node = replace(NODE_65NM, noise_margin_factor=noise_margin)
    chip = AnalyticalChipModel(node)
    curve = benchmark.pedantic(lambda: figure2_sweep(chip), rounds=1, iterations=1)
    n_peak, s_peak = curve.peak()
    print(
        f"\nvoltage floor {node.v_min:.2f} V -> peak speedup "
        f"{s_peak:.2f} at N={n_peak}"
    )
    assert s_peak > 1.0
    # A deeper floor (smaller margin) always allows at least as much
    # budget-limited speedup.
    if noise_margin == 2.0:
        reference = figure2_sweep(AnalyticalChipModel(NODE_65NM)).peak()[1]
        assert s_peak >= reference


def test_ablation_static_fraction_sweep(benchmark):
    """More leakage-dominated nodes collapse faster past the peak.

    With the 1-core total power held fixed, raising the static share
    *lowers* per-core dynamic power, so the peak itself does not fall;
    the leakage cost shows up in the post-peak region — at high N the
    per-core static floor eats the budget and speedup decays faster.
    """
    fractions = (0.15, 0.35, 0.50)

    def sweep():
        out = {}
        for fraction in fractions:
            node = replace(NODE_65NM, static_fraction_nominal=fraction)
            curve = figure2_sweep(AnalyticalChipModel(node))
            lookup = dict(zip(curve.core_counts, curve.speedups))
            out[fraction] = (curve.peak(), lookup[20])
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["static fraction", "peak N", "peak speedup", "speedup @ N=20"],
            [
                [f, results[f][0][0], results[f][0][1], results[f][1]]
                for f in fractions
            ],
            title="Figure 2 tail vs static power share",
        )
    )
    tails = [results[f][1] for f in fractions]
    assert tails[0] > tails[1] > tails[2]


def test_ablation_projected_32nm(benchmark):
    """One node beyond the paper: the collapse gets worse at 32 nm."""
    chip = AnalyticalChipModel(NODE_32NM_PROJECTED)
    curve = benchmark.pedantic(lambda: figure2_sweep(chip), rounds=1, iterations=1)
    n_peak, s_peak = curve.peak()
    curve65 = figure2_sweep(AnalyticalChipModel(NODE_65NM))
    print(
        f"\n32 nm projected: peak speedup {s_peak:.2f} at N={n_peak} "
        f"(65 nm: {curve65.peak()[1]:.2f} at N={curve65.peak()[0]})"
    )
    assert s_peak < curve65.peak()[1]


def test_ablation_prefetcher(benchmark, experiment_context):
    """Stream prefetching (off in the paper's machine) on Ocean.

    The instructive negative result: the prefetcher removes a good share
    of Ocean's L1 misses, but almost all of those misses were hitting
    the on-chip L2 anyway, so execution time barely moves (and the extra
    interconnect occupancy can even cost a little at higher core
    counts).  These codes' memory boundedness is off-chip latency and
    bus contention, not L1 misses — which is exactly why the paper's
    DVFS lever (shrinking the off-chip gap in cycles) matters more than
    a prefetcher would.
    """
    from dataclasses import replace as dc_replace

    from repro.sim.cmp import ChipMultiprocessor
    from repro.workloads import workload_by_name
    from repro.workloads.base import WorkloadModel

    model = WorkloadModel(
        workload_by_name("Ocean").spec.scaled(experiment_context.workload_scale)
    )

    def run_pair():
        out = {}
        for label, prefetch in (("off", False), ("on", True)):
            config = dc_replace(
                experiment_context.cmp_config, prefetch_next_line=prefetch
            )
            result = ChipMultiprocessor(config).run(
                [model.thread_ops(t, 4) for t in range(4)],
                model.core_timing(),
                warmup_barriers=model.warmup_barriers,
            )
            out[label] = result
        return out

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    off, on = results["off"], results["on"]
    print(
        f"\nOcean@4: prefetch off: miss {off.l1_miss_rate():.3f}, "
        f"{off.execution_time_s * 1e6:.0f} us; on: miss {on.l1_miss_rate():.3f}, "
        f"{on.execution_time_s * 1e6:.0f} us "
        f"({on.coherence.prefetches} prefetches)"
    )
    assert on.l1_miss_rate() < off.l1_miss_rate()
    # Time moves little either way: the misses removed were L2 hits.
    ratio = on.execution_time_ps / off.execution_time_ps
    assert 0.7 < ratio < 1.35


def test_ablation_budget_sensitivity(benchmark):
    """Doubling the power budget pushes the optimum N up."""
    chip = AnalyticalChipModel(NODE_130NM)

    def best_pair():
        tight = PerformanceOptimizationScenario(chip)
        loose = PerformanceOptimizationScenario(chip, budget_w=2 * tight.budget_w)
        eff = ConstantEfficiency(1.0)
        return (
            tight.best_configuration(eff, range(1, 33)),
            loose.best_configuration(eff, range(1, 33)),
        )

    tight_best, loose_best = benchmark.pedantic(best_pair, rounds=1, iterations=1)
    print(
        f"\nbudget 1x: best N={tight_best.n} speedup={tight_best.speedup:.2f}; "
        f"budget 2x: best N={loose_best.n} speedup={loose_best.speedup:.2f}"
    )
    assert loose_best.speedup > tight_best.speedup
