"""Golden-value regression tests for the Figure 1 / Figure 2 grids.

``tests/data/golden_figures.json`` pins the solved rows for both paper
technology nodes, written with :func:`repro.harness.store.save_results`.
Any numerical drift in the technology tables, the power model, the
scenario solvers, or the sweep plumbing shows up here as a >1e-9
discrepancy.

To regenerate after an *intentional* model change::

    PYTHONPATH=src python -c "
    from repro.core import AnalyticalChipModel, figure1_rows, figure2_rows
    from repro.harness.store import save_results
    from repro.tech.technology import technology_by_name
    groups = {}
    for tech in ('130nm', '65nm'):
        chip = AnalyticalChipModel(technology_by_name(tech))
        groups[f'fig1-{tech}'] = figure1_rows(chip, efficiency_points=21)
        groups[f'fig2-{tech}'] = figure2_rows(chip)
    save_results(groups, 'tests/data/golden_figures.json')"
"""

import dataclasses
import math
from pathlib import Path

import pytest

from repro.core import AnalyticalChipModel, figure1_rows, figure2_rows
from repro.harness.store import load_results
from repro.tech.technology import technology_by_name

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_figures.json"
TOLERANCE = 1e-9
TECH_NODES = ("130nm", "65nm")


@pytest.fixture(scope="module")
def golden():
    return load_results(GOLDEN_PATH)


def assert_rows_match(actual_rows, golden_rows, group):
    assert len(actual_rows) == len(golden_rows), (
        f"{group}: {len(actual_rows)} rows, golden has {len(golden_rows)}"
    )
    for position, (actual, expected) in enumerate(zip(actual_rows, golden_rows)):
        assert type(actual) is type(expected)
        for field in dataclasses.fields(actual):
            a = getattr(actual, field.name)
            e = getattr(expected, field.name)
            if isinstance(e, float):
                assert math.isclose(a, e, rel_tol=TOLERANCE, abs_tol=TOLERANCE), (
                    f"{group}[{position}].{field.name}: {a!r} != golden {e!r}"
                )
            else:
                assert a == e, (
                    f"{group}[{position}].{field.name}: {a!r} != golden {e!r}"
                )


@pytest.mark.parametrize("tech", TECH_NODES)
def test_figure1_rows_match_golden(golden, tech):
    chip = AnalyticalChipModel(technology_by_name(tech))
    rows = figure1_rows(chip, efficiency_points=21)
    assert_rows_match(rows, golden[f"fig1-{tech}"], f"fig1-{tech}")


@pytest.mark.parametrize("tech", TECH_NODES)
def test_figure2_rows_match_golden(golden, tech):
    chip = AnalyticalChipModel(technology_by_name(tech))
    rows = figure2_rows(chip)
    assert_rows_match(rows, golden[f"fig2-{tech}"], f"fig2-{tech}")


def test_golden_fixture_has_expected_shape(golden):
    assert sorted(golden) == [
        "fig1-130nm",
        "fig1-65nm",
        "fig2-130nm",
        "fig2-65nm",
    ]
    for tech in TECH_NODES:
        # Figure 2's x-axis is N = 1..32, none of which is infeasible at
        # eps_n = 1 on the paper's nodes.
        assert [row.n for row in golden[f"fig2-{tech}"]] == list(range(1, 33))
        assert all(row.technology == tech for row in golden[f"fig1-{tech}"])
