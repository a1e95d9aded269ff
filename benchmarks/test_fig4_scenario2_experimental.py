"""Figure 4 — experimental Scenario II: nominal vs actual speedup.

Regenerates the paper's Figure 4: for FMM, Cholesky and Radix (descending
computational intensity), the nominal speedup (from the profiled
efficiency, no power constraint) versus the actual speedup under the
single-core power budget derived by microbenchmarking, N = 1..16.

Shape assertions (the paper's Section 4.2 observations):

* actual <= nominal everywhere;
* the nominal/actual gap is largest for FMM and smallest for Radix;
* Radix runs at nominal V/f — actual == nominal — up to eight cores,
  because its stalls keep it far under the budget.

The numbers EXPERIMENTS.md's Figure 4 table quotes are checked against
the same rows, at the table's printed precision.
"""

import pytest

from repro.harness import render_table, run_scenario2
from repro.workloads import workload_by_name

FIG4_APPS = ("FMM", "Cholesky", "Radix")
FIG4_CORE_COUNTS = (1, 2, 4, 6, 8, 10, 12, 14, 16)


@pytest.fixture(scope="module")
def scenario2_results(experiment_context):
    models = [workload_by_name(a) for a in FIG4_APPS]
    return run_scenario2(experiment_context, models, core_counts=FIG4_CORE_COUNTS)


def test_figure4_pipeline(benchmark, experiment_context):
    """Time one (application, N) budget search + final run (Cholesky, 8)."""
    rows = benchmark.pedantic(
        lambda: run_scenario2(
            experiment_context, [workload_by_name("Cholesky")], core_counts=(8,)
        ),
        rounds=1,
        iterations=1,
    )
    assert rows["Cholesky"][0].power_w <= rows["Cholesky"][0].budget_w * 1.05


def test_figure4_series(benchmark, scenario2_results):
    benchmark.pedantic(lambda: scenario2_results, rounds=1, iterations=1)
    print()
    table_rows = []
    for app in FIG4_APPS:
        for r in scenario2_results[app]:
            table_rows.append(
                [
                    app,
                    r.n,
                    r.nominal_speedup,
                    r.actual_speedup,
                    r.frequency_hz / 1e9,
                    r.power_w,
                ]
            )
    print(
        render_table(
            ["app", "N", "nominal", "actual", "f (GHz)", "P (W)"],
            table_rows,
            title="Figure 4: nominal vs actual speedup under the 1-core budget",
        )
    )

    for app in FIG4_APPS:
        for r in scenario2_results[app]:
            # Budget respected and actual never beats nominal (small
            # tolerance for simulator noise at equal operating points).
            assert r.power_w <= r.budget_w * 1.05, (app, r.n)
            assert r.actual_speedup <= r.nominal_speedup * 1.02, (app, r.n)


def test_figure4_gap_ordering(benchmark, scenario2_results):
    """The nominal/actual gap orders FMM > Cholesky > Radix at 16 cores."""
    benchmark.pedantic(lambda: scenario2_results, rounds=1, iterations=1)

    def gap(app):
        row = [r for r in scenario2_results[app] if r.n == 16][0]
        return (row.nominal_speedup - row.actual_speedup) / row.nominal_speedup

    assert gap("FMM") > gap("Cholesky") > gap("Radix")


def test_figure4_radix_nominal_through_8_cores(benchmark, scenario2_results):
    """Radix fits the budget at nominal V/f up to eight cores."""
    benchmark.pedantic(lambda: scenario2_results, rounds=1, iterations=1)
    for r in scenario2_results["Radix"]:
        if r.n <= 8:
            assert r.runs_at_nominal, r.n
            assert r.actual_speedup == pytest.approx(r.nominal_speedup, rel=1e-9)


def test_figure4_fmm_throttles_early(benchmark, scenario2_results):
    """The compute-intensive FMM must throttle from small N."""
    benchmark.pedantic(lambda: scenario2_results, rounds=1, iterations=1)
    throttled = [r.n for r in scenario2_results["FMM"] if not r.runs_at_nominal]
    assert throttled and min(throttled) <= 4


def test_figure4_experiments_md_quotes_these_rows(
    benchmark, scenario2_results, experiments_section
):
    """Every Figure 4 number EXPERIMENTS.md quotes is what these rows give."""
    benchmark.pedantic(lambda: scenario2_results, rounds=1, iterations=1)
    section = experiments_section("## Figure 4")
    at16 = {app: [r for r in scenario2_results[app] if r.n == 16][0] for app in FIG4_APPS}
    quoted = [
        "at N = 16: "
        + ", ".join(
            f"{app} {100 * (r.nominal_speedup - r.actual_speedup) / r.nominal_speedup:.1f} %"
            for app, r in at16.items()
        ),
        f"Radix(16) keeps speedup {at16['Radix'].actual_speedup:.2f} of nominal "
        f"{at16['Radix'].nominal_speedup:.2f} at {at16['Radix'].frequency_hz / 1e9:.1f} GHz",
        f"{at16['FMM'].budget_w:.1f} W",
    ]
    print()
    for text in quoted:
        print(text)
    for text in quoted:
        assert text in section, text
