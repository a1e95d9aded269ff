"""Golden pin of the ``repro optimize`` rows for every objective.

``tests/data/golden_optimizer.json`` holds every
:class:`~repro.harness.optimizer.OptimizerRow` that ``run_optimizer``
chooses for the ``edp``, ``ed2p``, ``power-iso`` and ``speedup-budget``
objectives on FMM, Cholesky and Radix at ``workload_scale=0.05``.  The
simulator is deterministic, so rows compare bitwise: floats are stored
as exact JSON (``repr`` round-trips) and any drift fails with the
objective, application, N and field named.

To regenerate after an *intentional* model change::

    PYTHONPATH=src python -m tests.harness.test_golden_optimizer
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.harness import ExperimentContext, run_optimizer
from repro.workloads import workload_by_name

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_optimizer.json"
SCALE = 0.05
OBJECTIVES = ("edp", "ed2p", "power-iso", "speedup-budget")
APPS = ("FMM", "Cholesky", "Radix")
CORE_COUNTS = (1, 2, 4, 8, 16)


def compute_rows(context):
    """Every objective's rows as ``{objective: [row dict, ...]}``.

    One context serves all four campaigns, so the later searches reuse
    the process-wide compile cache the first one warmed.
    """
    models = [workload_by_name(app) for app in APPS]
    return {
        objective: [
            dataclasses.asdict(row)
            for row in run_optimizer(
                context, models, objective, core_counts=CORE_COUNTS
            ).rows
        ]
        for objective in OBJECTIVES
    }


@pytest.fixture(scope="module")
def rows():
    return compute_rows(ExperimentContext(workload_scale=SCALE))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_fixture_covers_every_objective(golden):
    assert golden["workload_scale"] == SCALE
    assert tuple(golden["objectives"]) == OBJECTIVES
    for objective_rows in golden["objectives"].values():
        assert sorted({row["app"] for row in objective_rows}) == sorted(APPS)
        assert {row["n"] for row in objective_rows} == set(CORE_COUNTS)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_rows_match_golden_bitwise(rows, golden, objective):
    actual, expected = rows[objective], golden["objectives"][objective]
    assert [(r["app"], r["n"]) for r in actual] == [
        (r["app"], r["n"]) for r in expected
    ], f"{objective}: (app, N) set changed"
    for row, golden_row in zip(actual, expected):
        where = f"{objective} {row['app']} N={row['n']}"
        assert list(row) == list(golden_row), f"{where}: fields changed"
        for name, want in golden_row.items():
            got = row[name]
            # ``repr`` equality is bitwise for floats (and exact for the
            # int, bool and str fields).
            assert repr(got) == repr(want), (
                f"{where} {name}: {got!r} != golden {want!r}"
            )


if __name__ == "__main__":
    computed = compute_rows(ExperimentContext(workload_scale=SCALE))
    GOLDEN_PATH.write_text(
        json.dumps(
            {"workload_scale": SCALE, "objectives": computed}, indent=1
        )
        + "\n",
        encoding="utf-8",
    )
