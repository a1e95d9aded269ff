"""Tests for the markdown report generator."""

import pytest

from repro.harness.executor import SweepExecutor
from repro.harness.report import ReportOptions, generate_report


@pytest.fixture(scope="module")
def analytical_report():
    return generate_report(ReportOptions(include_experimental=False))


class CountingExecutor(SweepExecutor):
    """An inline executor that records each ``map`` call's points."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def map(self, fn, points, key_configs=None, precompile=None):
        points = list(points)
        if key_configs is not None:
            key_configs = list(key_configs)
        self.calls.append((len(points), key_configs))
        return super().map(fn, points, key_configs, precompile)


@pytest.fixture(scope="module")
def full_run():
    executor = CountingExecutor()
    report = generate_report(
        ReportOptions(
            include_experimental=True,
            workload_scale=0.05,
            scenario1_apps=("FMM",),
            scenario2_apps=("Radix",),
            scenario2_core_counts=(1, 2),
        ),
        executor=executor,
    )
    return report, executor


@pytest.fixture(scope="module")
def full_report(full_run):
    return full_run[0]


class TestAnalyticalReport:
    def test_has_all_sections(self, analytical_report):
        assert "# repro experiment report" in analytical_report
        assert "## Figure 1" in analytical_report
        assert "## Figure 2" in analytical_report
        assert "## Scenario III" in analytical_report
        assert "## Figure 3" not in analytical_report

    def test_both_technologies(self, analytical_report):
        assert "### 130nm" in analytical_report
        assert "### 65nm" in analytical_report

    def test_tables_well_formed(self, analytical_report):
        for line in analytical_report.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")

    def test_figure1_values_present(self, analytical_report):
        # The eps=0.5 column must resolve (grid alignment).
        fig1 = analytical_report.split("## Figure 2")[0]
        data_lines = [
            row for row in fig1.splitlines() if row.startswith("| 4 ")
        ]
        assert data_lines
        assert "nan" not in data_lines[0]

    def test_figure2_peak_reported(self, analytical_report):
        assert "peak" in analytical_report


class TestFullReport:
    def test_experimental_sections_present(self, full_report):
        assert "## Figure 3" in full_report
        assert "## Figure 4" in full_report
        assert "FMM" in full_report
        assert "Radix" in full_report

    def test_budget_line(self, full_report):
        assert "power budget" in full_report


class TestRobustnessSection:
    def test_clean_report_declares_completion(self, analytical_report):
        assert "## Robustness" in analytical_report
        assert "feasible sweep points completed" in analytical_report
        assert "Degraded run" not in analytical_report

    def test_the_point_total_counts_the_calibration(self, full_run):
        report, executor = full_run
        calibration = [{"kind": "power-calibration"}]
        assert [n for n, keys in executor.calls if keys == calibration] == [1]
        feasible = sum(n for n, _ in executor.calls) - len(executor.failed)
        assert f"All {feasible} feasible sweep points completed" in report

    def test_degraded_report_lists_quarantined_points(self):
        from repro.harness.executor import RetryPolicy, SweepExecutor
        from repro.harness.faults import ALWAYS, FaultPlan, FaultSpec

        executor = SweepExecutor(
            retry=RetryPolicy(
                max_retries=1, backoff_base_s=0.0, backoff_max_s=0.0
            ),
            fault_plan=FaultPlan(
                seed=0,
                faults=(
                    (5, FaultSpec(kind="raise", failing_attempts=ALWAYS)),
                ),
            ),
        )
        report = generate_report(
            ReportOptions(include_experimental=False), executor=executor
        )
        assert "**Degraded run**" in report
        assert "InjectedFault" in report
        # The sabotaged table cell is genuinely absent, and the section
        # says so instead of leaving the reader to diff row counts.
        assert "the tables above omit them" in report
