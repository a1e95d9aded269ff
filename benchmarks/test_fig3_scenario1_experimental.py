"""Figure 3 — experimental Scenario I over the SPLASH-2 suite.

Regenerates all five panels of the paper's Figure 3 for the twelve
applications at N in {1, 2, 4, 8, 16}: nominal parallel efficiency,
actual speedup, normalized power consumption, normalized power density,
and average operating temperature.

Shape assertions (the paper's observations in Section 4.1):

* nominal efficiency falls with N within each application;
* actual speedups are >= ~1 (all configurations at least meet the 1-core
  target) with memory-bound applications overshooting the most;
* power consumption drops below 1 given sufficient efficiency, and for
  poorly-scaling applications the savings stagnate or recede at high N;
* power density collapses by roughly an order of magnitude at N = 16;
* average temperature decreases monotonically toward ambient, with the
  power-hungry applications (FMM, LU) seeing the largest drops.

The numbers EXPERIMENTS.md's Figure 3 table quotes are checked against
the same rows, at the table's printed precision.
"""

import pytest

from repro.harness import render_table, run_scenario1
from repro.workloads import SPLASH2


@pytest.fixture(scope="module")
def scenario1_results(experiment_context):
    return run_scenario1(experiment_context, SPLASH2)


def test_figure3_pipeline(benchmark, experiment_context):
    """Time one application's full Scenario I pipeline (FMM)."""
    from repro.workloads import workload_by_name

    rows = benchmark.pedantic(
        lambda: run_scenario1(experiment_context, [workload_by_name("FMM")]),
        rounds=1,
        iterations=1,
    )
    assert "FMM" in rows


def test_figure3_all_panels(benchmark, scenario1_results):
    benchmark.pedantic(lambda: scenario1_results, rounds=1, iterations=1)
    print()
    table_rows = []
    for app, rows in scenario1_results.items():
        for r in rows:
            table_rows.append(
                [
                    app,
                    r.n,
                    r.nominal_efficiency,
                    r.actual_speedup,
                    r.normalized_power,
                    r.normalized_power_density,
                    r.average_temperature_c,
                ]
            )
    print(
        render_table(
            ["app", "N", "eps_n", "speedup", "norm-P", "norm-density", "T-avg(C)"],
            table_rows,
            title="Figure 3: experimental Scenario I (all five panels)",
        )
    )

    for app, rows in scenario1_results.items():
        by_n = {r.n: r for r in rows}
        ns = sorted(by_n)
        # Panel 1: efficiency falls with N.
        effs = [by_n[n].nominal_efficiency for n in ns if n > 1]
        assert all(b <= a + 0.05 for a, b in zip(effs, effs[1:])), app
        # Panel 2: every configuration at least roughly meets the target.
        for n in ns:
            assert by_n[n].actual_speedup >= 0.9, (app, n)
        # Panel 3: parallel configurations save power.
        assert min(by_n[n].normalized_power for n in ns if n > 1) < 1.0, app
        # Panel 4: density collapses at N = 16.
        if 16 in by_n:
            assert by_n[16].normalized_power_density < 0.15, app
        # Panel 5: temperature declines toward (never below) ambient.
        temps = [by_n[n].average_temperature_c for n in ns]
        assert all(b <= a + 0.5 for a, b in zip(temps, temps[1:])), app
        assert all(t >= 44.9 for t in temps), app


def test_figure3_memory_bound_speedup_boost(benchmark, scenario1_results):
    """Memory-bound codes overshoot the iso-performance target most."""
    benchmark.pedantic(lambda: scenario1_results, rounds=1, iterations=1)

    def peak_speedup(app):
        return max(r.actual_speedup for r in scenario1_results[app])

    assert peak_speedup("Ocean") > peak_speedup("FMM")
    assert peak_speedup("Radix") > peak_speedup("FMM")


def test_figure3_power_recedes_for_poor_scalers(benchmark, scenario1_results):
    """Diminishing efficiency eventually erodes the power savings."""
    benchmark.pedantic(lambda: scenario1_results, rounds=1, iterations=1)
    cholesky = {r.n: r.normalized_power for r in scenario1_results["Cholesky"]}
    assert cholesky[16] > min(cholesky.values())


def test_figure3_analytical_agreement(benchmark, scenario1_results, experiment_context):
    """Quantify the paper's validation claim: feeding the measured
    efficiency curves into the analytical model predicts the simulated
    power points within a small factor (same V/f table on both sides)."""
    from repro.harness import compare_scenario1

    summary = benchmark.pedantic(
        lambda: compare_scenario1(
            scenario1_results, vf_table=experiment_context.vf_table
        ),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nanalytical-vs-experimental over {len(summary.points)} points: "
        f"mean |log ratio| {summary.mean_abs_log_ratio:.2f}, worst factor "
        f"{summary.worst_factor:.2f}, within 2x: {summary.within_factor(2.0):.0%}"
    )
    assert summary.within_factor(2.0) >= 0.8
    assert summary.mean_abs_log_ratio < 0.5


def test_figure3_hot_apps_cool_most(benchmark, scenario1_results):
    """FMM and LU consume the most power at nominal, so they cool most."""
    benchmark.pedantic(lambda: scenario1_results, rounds=1, iterations=1)

    def temperature_drop(app):
        rows = {r.n: r for r in scenario1_results[app]}
        return rows[1].average_temperature_c - rows[16].average_temperature_c

    drops = {app: temperature_drop(app) for app in scenario1_results}
    hottest = sorted(drops, key=drops.get, reverse=True)[:4]
    assert "FMM" in hottest
    assert "LU" in hottest


def test_figure3_experiments_md_quotes_these_rows(
    benchmark, scenario1_results, experiments_section
):
    """Every Figure 3 number EXPERIMENTS.md quotes is what these rows give."""
    benchmark.pedantic(lambda: scenario1_results, rounds=1, iterations=1)
    section = experiments_section("## Figure 3")
    cholesky = [r.normalized_power for r in scenario1_results["Cholesky"] if r.n > 1]
    density16 = [
        r.normalized_power_density
        for rows in scenario1_results.values()
        for r in rows
        if r.n == 16
    ]
    lo, hi = min(density16), max(density16)
    quoted = [
        "Cholesky " + " -> ".join(f"{p:.2f}" for p in cholesky),
        f"{lo:.3f}-{hi:.3f} normalized "
        f"({100 * (1 - hi):.0f}-{100 * (1 - lo):.0f} % reduction)",
    ]
    print()
    for text in quoted:
        print(text)
    for text in quoted:
        assert text in section, text
