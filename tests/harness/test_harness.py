"""Integration tests for the Figure 3 / Figure 4 experiment pipelines.

These use heavily scaled-down workloads so the whole module stays within
a normal test-suite budget; the benchmarks run the full-scale versions.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness import (
    ExperimentContext,
    render_table,
    run_scenario1,
    run_scenario2,
)
from repro.harness.profiling import profile_rows
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.08)


@pytest.fixture(scope="module")
def fmm_profile(context):
    return profile_rows(context, workload_by_name("FMM"), (1, 2, 4))


def nominal_speedup(profile, n):
    return profile[1].execution_time_ps / profile[n].execution_time_ps


class TestContext:
    def test_vf_table_range(self, context):
        assert context.f_min == pytest.approx(200e6)
        assert context.f_nominal == pytest.approx(3.2e9)
        assert context.vf_table.voltage_for_frequency(3.2e9) == pytest.approx(1.1)

    def test_clamp(self, context):
        assert context.clamp_frequency(5e9) == pytest.approx(3.2e9)
        assert context.clamp_frequency(50e6) == pytest.approx(200e6)

    def test_run_returns_power(self, context):
        result, power = context.run(workload_by_name("Barnes"), 2)
        assert result.execution_time_ps > 0
        assert power.total_w > 0

    def test_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            ExperimentContext(workload_scale=0.0)


class TestProfiling:
    def test_entries_for_requested_counts(self, fmm_profile):
        assert sorted(fmm_profile) == [1, 2, 4]

    def test_efficiency_reasonable(self, fmm_profile):
        eps2 = nominal_speedup(fmm_profile, 2) / 2
        eps4 = nominal_speedup(fmm_profile, 4) / 4
        assert 0.3 < eps4 <= eps2 <= 1.2

    def test_nominal_speedup_monotone(self, fmm_profile):
        assert nominal_speedup(fmm_profile, 2) > 1.0
        assert nominal_speedup(fmm_profile, 4) > nominal_speedup(fmm_profile, 2)

    def test_missing_entry_raises(self, context):
        # Without the 1-core entry nothing can be normalised.
        with pytest.raises(ConfigurationError, match="1-core baseline"):
            profile_rows(context, workload_by_name("FMM"), (2, 4))

    def test_power_of_two_filtering(self, context):
        profile = profile_rows(context, workload_by_name("FFT"), (1, 2, 3, 4))
        assert sorted(profile) == [1, 2, 4]


class TestScenario1:
    @pytest.fixture(scope="class")
    def rows(self, context):
        results = run_scenario1(
            context, [workload_by_name("FMM")], core_counts=(1, 2, 4)
        )
        return results["FMM"]

    def test_row_per_core_count(self, rows):
        assert [r.n for r in rows] == [1, 2, 4]

    def test_baseline_normalised_to_one(self, rows):
        assert rows[0].normalized_power == 1.0
        assert rows[0].actual_speedup == 1.0
        assert rows[0].normalized_power_density == 1.0

    def test_scaled_configs_save_power(self, rows):
        for row in rows[1:]:
            assert row.normalized_power < 1.0

    def test_actual_speedup_at_least_iso(self, rows):
        # Memory-gap narrowing means the scaled runs meet or beat the
        # 1-core target.
        for row in rows[1:]:
            assert row.actual_speedup >= 0.95

    def test_density_collapses(self, rows):
        densities = [r.normalized_power_density for r in rows]
        assert all(b < a for a, b in zip(densities, densities[1:]))

    def test_temperature_declines(self, rows):
        temps = [r.average_temperature_c for r in rows]
        assert all(b <= a + 0.5 for a, b in zip(temps, temps[1:]))
        assert all(t >= 45.0 - 1e-6 for t in temps)

    def test_frequency_follows_eq7(self, rows, context):
        for row in rows[1:]:
            expected = context.clamp_frequency(
                3.2e9 / (row.n * row.nominal_efficiency)
            )
            assert row.frequency_hz == pytest.approx(expected)


class TestScenario2:
    @pytest.fixture(scope="class")
    def radix_rows(self, context):
        results = run_scenario2(
            context, [workload_by_name("Radix")], core_counts=(1, 2, 4)
        )
        return results["Radix"]

    def test_budget_respected(self, radix_rows):
        for row in radix_rows:
            assert row.power_w <= row.budget_w * 1.05

    def test_power_thrifty_app_runs_at_nominal(self, radix_rows):
        # Radix's nominal power is far below the budget at small N
        # (Section 4.2: actual == nominal up to 8 cores).
        for row in radix_rows:
            assert row.runs_at_nominal
            assert row.actual_speedup == pytest.approx(row.nominal_speedup, rel=1e-6)

    def test_throttled_app_shows_gap(self, context):
        results = run_scenario2(
            context, [workload_by_name("FMM")], core_counts=(4,)
        )
        row = results["FMM"][0]
        assert not row.runs_at_nominal
        assert row.actual_speedup < row.nominal_speedup

    def test_custom_budget(self, context):
        generous = run_scenario2(
            context,
            [workload_by_name("Radix")],
            core_counts=(2,),
            budget_w=1000.0,
        )["Radix"][0]
        assert generous.runs_at_nominal


class TestRenderTable:
    def test_renders_headers_and_rows(self):
        text = render_table(
            ["app", "eps"], [["FMM", 0.85], ["Radix", 0.6]], title="Demo"
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "app" in lines[1] and "eps" in lines[1]
        assert "0.850" in text
        assert "Radix" in text

    def test_column_alignment(self):
        text = render_table(["n"], [[1], [100]])
        lines = text.splitlines()
        assert len(lines[-1]) == len(lines[-2])
