"""Serial/parallel equivalence: jobs=4 must be bitwise identical to jobs=1.

The executor's contract is that parallelism changes wall-clock time and
nothing else.  Each pipeline here runs three ways — the pre-existing
serial entry point (no executor argument), an explicit ``jobs=1``
executor, and a ``jobs=4`` executor — and the row lists must match
exactly (same order, same values, no tolerance).
"""

import pytest

from repro.core import (
    AnalyticalChipModel,
    PerformanceOptimizationScenario,
    PowerOptimizationScenario,
    figure1_rows,
    figure1_sweep,
    figure2_rows,
    figure2_sweep,
)
from repro.core.efficiency import ConstantEfficiency
from repro.harness import (
    ExperimentContext,
    SweepExecutor,
    run_scenario1,
    run_scenario2,
)
from repro.tech.technology import technology_by_name
from repro.workloads import workload_by_name

EFFICIENCY_POINTS = 31
CORE_COUNTS = (2, 4, 8)


@pytest.fixture(scope="module")
def chip():
    return AnalyticalChipModel(technology_by_name("65nm"))


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.04)


class TestAnalyticalEquivalence:
    def test_figure1_parallel_equals_serial(self, chip):
        serial = figure1_rows(
            chip, CORE_COUNTS, efficiency_points=EFFICIENCY_POINTS
        )
        parallel = figure1_rows(
            chip,
            CORE_COUNTS,
            efficiency_points=EFFICIENCY_POINTS,
            executor=SweepExecutor(jobs=4),
        )
        assert parallel == serial

    def test_figure1_matches_preexisting_solver_path(self, chip):
        """The fan-out grid reproduces ``efficiency_sweep`` bit for bit."""
        import numpy as np

        rows = figure1_rows(chip, CORE_COUNTS, efficiency_points=EFFICIENCY_POINTS)
        grid = [float(e) for e in np.linspace(0.01, 1.0, EFFICIENCY_POINTS)]
        scenario = PowerOptimizationScenario(chip)
        for n in CORE_COUNTS:
            legacy = scenario.efficiency_sweep(n, grid)
            ours = [r for r in rows if r.n == n]
            assert [r.eps_n for r in ours] == [p.eps_n for p in legacy]
            assert [r.normalized_power for r in ours] == [
                p.normalized_power for p in legacy
            ]

    def test_figure1_sweep_curves_identical(self, chip):
        serial = figure1_sweep(chip, CORE_COUNTS, efficiency_points=EFFICIENCY_POINTS)
        parallel = figure1_sweep(
            chip,
            CORE_COUNTS,
            efficiency_points=EFFICIENCY_POINTS,
            executor=SweepExecutor(jobs=4),
        )
        assert parallel == serial

    def test_figure2_parallel_equals_serial_and_solver(self, chip):
        counts = tuple(range(1, 17))
        serial = figure2_rows(chip, counts)
        parallel = figure2_rows(chip, counts, executor=SweepExecutor(jobs=4))
        assert parallel == serial
        legacy = PerformanceOptimizationScenario(chip).speedup_curve(
            ConstantEfficiency(1.0), counts
        )
        assert [r.speedup for r in serial] == [p.speedup for p in legacy]
        assert [r.regime for r in serial] == [p.regime for p in legacy]

    def test_figure2_sweep_curve_identical(self, chip):
        counts = tuple(range(1, 17))
        serial = figure2_sweep(chip, counts)
        parallel = figure2_sweep(chip, counts, executor=SweepExecutor(jobs=4))
        assert parallel == serial


class TestExperimentalEquivalence:
    def test_scenario1_parallel_equals_serial(self, context):
        models = [workload_by_name("FMM"), workload_by_name("Radix")]
        counts = (1, 2, 4)
        default = run_scenario1(context, models, counts)
        serial = run_scenario1(
            context, models, counts, executor=SweepExecutor(jobs=1)
        )
        parallel = run_scenario1(
            context, models, counts, executor=SweepExecutor(jobs=4)
        )
        assert serial == default
        assert parallel == default

    def test_scenario2_parallel_equals_serial(self, context):
        models = [workload_by_name("Radix")]
        counts = (1, 2, 4)
        default = run_scenario2(context, models, counts)
        parallel = run_scenario2(
            context, models, counts, executor=SweepExecutor(jobs=4)
        )
        assert parallel == default
