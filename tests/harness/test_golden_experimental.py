"""Golden pin of the experimental Figure 3 and Figure 4 rows.

``tests/data/golden_experimental.json`` holds every
:class:`~repro.harness.scenario1.Scenario1Row` of ``run_scenario1`` and
every :class:`~repro.harness.scenario2.Scenario2Row` of ``run_scenario2``
at ``workload_scale=0.05``.  The simulator is deterministic, so rows
compare bitwise: floats are stored as exact JSON (``repr`` round-trips)
and any drift fails with the figure, application, N and field named.

To regenerate after an *intentional* model change::

    PYTHONPATH=src python -m tests.harness.test_golden_experimental
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.harness import ExperimentContext, run_scenario1, run_scenario2
from repro.workloads import workload_by_name

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_experimental.json"
SCALE = 0.05
FIG3_APPS = ("FMM", "LU", "Ocean", "Cholesky", "Radix")
FIG4_APPS = ("FMM", "Cholesky", "Radix")
FIG4_CORE_COUNTS = (1, 2, 4, 8, 12, 16)


def compute_figures(context):
    """Both figures' rows as ``{figure: {app: [row dict, ...]}}``."""
    fig3 = run_scenario1(context, [workload_by_name(a) for a in FIG3_APPS])
    fig4 = run_scenario2(
        context,
        [workload_by_name(a) for a in FIG4_APPS],
        core_counts=FIG4_CORE_COUNTS,
    )
    return {
        figure: {
            app: [dataclasses.asdict(row) for row in rows]
            for app, rows in results.items()
        }
        for figure, results in (("fig3", fig3), ("fig4", fig4))
    }


@pytest.fixture(scope="module")
def figures():
    return compute_figures(ExperimentContext(workload_scale=SCALE))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_fixture_covers_both_figures(golden):
    assert golden["workload_scale"] == SCALE
    assert tuple(golden["fig3"]) == FIG3_APPS
    assert tuple(golden["fig4"]) == FIG4_APPS
    # Radix runs power-of-two thread counts only, so it has no N=12 row.
    assert sum(len(rows) for rows in golden["fig3"].values()) == 25
    assert sum(len(rows) for rows in golden["fig4"].values()) == 17


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_rows_match_golden_bitwise(figures, golden, figure):
    actual, expected = figures[figure], golden[figure]
    assert list(actual) == list(expected), f"{figure}: application set changed"
    for app, golden_rows in expected.items():
        rows = actual[app]
        assert [r["n"] for r in rows] == [r["n"] for r in golden_rows], (
            f"{figure} {app}: core counts changed"
        )
        for row, golden_row in zip(rows, golden_rows):
            assert list(row) == list(golden_row), f"{figure} {app}: fields changed"
            for name, want in golden_row.items():
                got = row[name]
                # ``repr`` equality is bitwise for floats (and exact for
                # the int and str fields).
                assert repr(got) == repr(want), (
                    f"{figure} {app} N={row['n']} {name}: {got!r} != golden {want!r}"
                )


if __name__ == "__main__":
    rows = compute_figures(ExperimentContext(workload_scale=SCALE))
    GOLDEN_PATH.write_text(
        json.dumps({"workload_scale": SCALE, **rows}, indent=1) + "\n",
        encoding="utf-8",
    )
