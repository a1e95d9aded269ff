"""Tests for the adaptive design-space optimizer.

Three layers:

* **search-engine properties** (hypothesis) — for every monotone
  feasibility curve and every strictly unimodal metric curve, the
  refined search picks exactly the index the exhaustive pick rule
  picks, while evaluating a bounded subset of the ladder;
* **differential equivalence** — on the real simulator, the adaptive
  campaign returns bitwise the same optimum as ``exhaustive=True`` for
  every SPLASH-2 application under both boundary objectives, with
  materially fewer grid evaluations;
* **bugfix regressions** — the nominal-frequency field migration, the
  quarantined scenario-2 baseline, and compile-cache thrash on large
  campaigns.
"""

import json
import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.harness import (
    ExperimentContext,
    ResultCache,
    SweepExecutor,
    load_results,
    run_optimizer,
    run_scenario2,
    save_results,
)
from repro.harness.executor import RetryPolicy
from repro.harness.faults import ALWAYS, FaultPlan, FaultSpec
from repro.harness.optimizer import (
    DEFAULT_STEP_HZ,
    OptimizerRow,
    _BoundarySearch,
    _UnimodalSearch,
    _coarse_indices,
    _default_stride,
    frequency_ladder,
    objective_by_name,
    pick_boundary,
)
from repro.harness.schema import SCHEMA_VERSION
from repro.sim.ops import stream_cache
from repro.workloads import SPLASH2, workload_by_name

# ---------------------------------------------------------------------------
# Search-engine properties (no simulator involved).
# ---------------------------------------------------------------------------


def drive(search, values):
    """Run a search to completion against a lookup table of values."""
    evaluated = set()
    while not search.done:
        frontier = search.frontier()
        assert frontier, "a live search must always want another point"
        for index in frontier:
            assert index not in evaluated, "no point is requested twice"
            evaluated.add(index)
            search.known[index] = values[index]
        search.advance()
    return evaluated


#: Strictly increasing model coordinates, one per ladder point (the
#: cases reverse them too, like ``1/f`` for the iso-performance
#: objective).
coordinates = st.tuples(
    st.floats(min_value=-100.0, max_value=100.0),
    st.lists(st.floats(min_value=0.01, max_value=100.0), max_size=47),
).map(lambda case: list(accumulate(case[1], initial=case[0])))


def _boundary_bound(n):
    """Top, floor, two predicted pairs, then bisection."""
    return 2 + 4 + math.ceil(math.log2(n))


@st.composite
def monotone_cases(draw):
    """Any monotone constraint values, shaped like the model or not."""
    xs = draw(coordinates)
    if draw(st.booleans()):
        xs = xs[::-1]
    values = sorted(
        draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=len(xs),
                max_size=len(xs),
            )
        )
    )
    feasible_low = draw(st.booleans())
    if not feasible_low:
        values = values[::-1]
    limit = draw(
        st.sampled_from(values)
        | st.floats(min_value=-2e6, max_value=2e6, allow_nan=False)
    )
    return xs, values, limit, feasible_low


@given(monotone_cases())
@settings(max_examples=300, deadline=None)
def test_boundary_search_matches_exhaustive_pick(case):
    xs, values, limit, feasible_low = case
    search = _BoundarySearch(xs, limit, feasible_low)
    evaluated = drive(search, values)
    flags = [value <= limit for value in values]
    expected, _bracket = pick_boundary(flags, feasible_low)
    assert search.result == expected
    assert len(evaluated) <= _boundary_bound(len(xs))


@given(monotone_cases())
@settings(max_examples=100, deadline=None)
def test_boundary_search_bracket_straddles_the_flip(case):
    xs, values, limit, feasible_low = case
    search = _BoundarySearch(xs, limit, feasible_low)
    evaluated = drive(search, values)
    flags = [value <= limit for value in values]
    _expected, bracket = pick_boundary(flags, feasible_low)
    assert search.boundary == bracket
    if bracket is not None:
        lo, hi = bracket
        assert lo in evaluated and hi in evaluated
        assert flags[lo] != flags[hi]


@st.composite
def affine_cases(draw):
    """Values exactly affine in the model coordinate, with the limit
    halfway between two neighbouring values (or past either end)."""
    xs = draw(coordinates)
    if draw(st.booleans()):
        xs = xs[::-1]
    feasible_low = draw(st.booleans())
    slope = draw(st.floats(min_value=0.1, max_value=10.0))
    # Feasible-low values rise along the ladder, feasible-high ones fall.
    if (xs[-1] >= xs[0]) != feasible_low:
        slope = -slope
    offset = draw(st.floats(min_value=-100.0, max_value=100.0))
    values = [offset + slope * x for x in xs]
    ordered = sorted(values)
    gaps = [-1.0] + [(a + b) / 2 for a, b in zip(ordered, ordered[1:])] + [1.0]
    gap = draw(st.integers(min_value=0, max_value=len(gaps) - 1))
    if gap == 0:
        limit = ordered[0] - 1.0
    elif gap == len(gaps) - 1:
        limit = ordered[-1] + 1.0
    else:
        limit = gaps[gap]
    return xs, values, limit, feasible_low


@given(affine_cases())
@settings(max_examples=300, deadline=None)
def test_affine_values_resolve_in_four_evaluations(case):
    xs, values, limit, feasible_low = case
    search = _BoundarySearch(xs, limit, feasible_low)
    evaluated = drive(search, values)
    flags = [value <= limit for value in values]
    assert (search.result, search.boundary) == pick_boundary(flags, feasible_low)
    assert len(evaluated) <= 4


@given(monotone_cases())
@settings(max_examples=100, deadline=None)
def test_a_settling_top_probe_is_the_only_evaluation(case):
    xs, values, limit, feasible_low = case
    top_feasible = values[-1] <= limit
    search = _BoundarySearch(xs, limit, feasible_low)
    evaluated = drive(search, values)
    if top_feasible == feasible_low:
        assert evaluated == {len(xs) - 1}
    else:
        assert len(evaluated) >= min(2, len(xs))


def test_a_seeded_top_probe_is_not_requested_again():
    xs = [float(i) for i in range(16)]
    values = [10.0 * i for i in range(16)]
    search = _BoundarySearch(xs, 75.0, feasible_low=True)
    search.known[15] = values[15]
    search.advance()
    evaluated = drive(search, values)
    assert 15 not in evaluated
    assert (search.result, search.boundary) == (7, (7, 8))


unimodal_cases = st.tuples(
    st.integers(min_value=1, max_value=48),  # ladder length
    st.integers(min_value=0, max_value=47),  # minimum position (clamped)
    st.floats(min_value=0.1, max_value=5.0),  # left slope
    st.floats(min_value=0.1, max_value=5.0),  # right slope
)


@given(unimodal_cases)
@settings(max_examples=200, deadline=None)
def test_unimodal_search_finds_the_strict_minimum(case):
    n, minimum, left, right = case
    minimum = min(minimum, n - 1)
    values = [
        (minimum - i) * left if i <= minimum else (i - minimum) * right
        for i in range(n)
    ]
    search = _UnimodalSearch(n)
    evaluated = drive(search, values)
    expected = min(range(n), key=lambda i: (values[i], i))
    assert search.result == expected
    assert len(evaluated) <= n


def test_default_stride_halves_cleanly():
    assert _default_stride(16) == 8
    assert _default_stride(17) == 16
    assert _default_stride(2) == 1
    assert _default_stride(1) == 1


def test_coarse_indices_include_both_endpoints():
    assert _coarse_indices(16, 8) == [0, 8, 15]
    assert _coarse_indices(5, 2) == [0, 2, 4]
    assert _coarse_indices(1, 1) == [0]


def test_pick_boundary_nothing_feasible():
    assert pick_boundary([False, False, False], True) == (None, None)


def test_pick_boundary_prefix_and_suffix():
    assert pick_boundary([True, True, False], True) == (1, (1, 2))
    assert pick_boundary([False, True, True], False) == (1, (0, 1))
    assert pick_boundary([True, True], True) == (1, None)


def test_objective_by_name_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown objective"):
        objective_by_name("fastest")


# ---------------------------------------------------------------------------
# Differential equivalence on the real simulator.
# ---------------------------------------------------------------------------

CORE_COUNTS = (1, 16)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(workload_scale=0.03)


@pytest.fixture(scope="module")
def shared_executor(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("optimizer-cache"))
    return SweepExecutor(cache=cache)


@pytest.mark.parametrize("objective", ["speedup-budget", "power-iso"])
def test_adaptive_matches_exhaustive_for_all_workloads(
    context, shared_executor, objective
):
    exhaustive = run_optimizer(
        context,
        SPLASH2,
        objective,
        core_counts=CORE_COUNTS,
        executor=shared_executor,
        exhaustive=True,
    )
    adaptive = run_optimizer(
        context,
        SPLASH2,
        objective,
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    # Bitwise identity of every chosen optimum, for every application.
    assert [r.app for r in adaptive.rows] == [r.app for r in exhaustive.rows]
    for got, want in zip(adaptive.rows, exhaustive.rows):
        assert got.frequency_hz == want.frequency_hz
        assert got.voltage == want.voltage
        assert got.execution_time_ps == want.execution_time_ps
        assert got.total_power_w == want.total_power_w
        assert got.speedup == want.speedup
        assert got.metric == want.metric
        assert got.feasible == want.feasible
    # ... at a fraction of the simulations (the issue's <= 50% gate).
    assert adaptive.evaluations <= exhaustive.evaluations / 2
    assert not adaptive.skipped


def test_adaptive_matches_exhaustive_for_edp(context, shared_executor):
    models = [workload_by_name(app) for app in ("FMM", "Radix", "Cholesky")]
    exhaustive = run_optimizer(
        context, models, "edp", core_counts=(4,),
        executor=shared_executor, exhaustive=True,
    )
    adaptive = run_optimizer(
        context, models, "edp", core_counts=(4,), executor=shared_executor
    )
    assert [(r.app, r.frequency_hz, r.metric) for r in adaptive.rows] == [
        (r.app, r.frequency_hz, r.metric) for r in exhaustive.rows
    ]


def test_interpolated_boundary_within_one_grid_step(context, shared_executor):
    campaign = run_optimizer(
        context,
        SPLASH2,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    ladder = frequency_ladder(context)
    for row in campaign.rows:
        assert abs(row.f_interpolated_hz - row.frequency_hz) <= DEFAULT_STEP_HZ
        assert ladder[0] <= row.f_interpolated_hz <= ladder[-1]
        assert not math.isnan(row.f_interpolated_hz)


def test_warm_cache_repeats_without_simulating(context, shared_executor):
    first = run_optimizer(
        context,
        SPLASH2,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    second = run_optimizer(
        context,
        SPLASH2,
        "speedup-budget",
        core_counts=CORE_COUNTS,
        executor=shared_executor,
    )
    assert second.rows == first.rows
    assert second.evaluations == first.evaluations
    assert second.cold_evaluations == 0
    assert second.cache_hits == second.evaluations


def test_campaign_accounting_is_consistent(context, shared_executor):
    campaign = run_optimizer(
        context,
        [workload_by_name("LU")],
        "speedup-budget",
        core_counts=(1, 4),
        executor=shared_executor,
    )
    assert campaign.evaluations == (
        campaign.cold_evaluations + campaign.cache_hits
    )
    assert campaign.exhaustive_evaluations == len(
        frequency_ladder(context)
    ) * len(campaign.rows)
    assert campaign.simulations_saved >= 0
    assert 0.0 < campaign.evaluation_ratio <= 1.0
    assert "speedup-budget" in campaign.summary()
    for row in campaign.rows:
        assert row.energy_j > 0.0


def test_cold_scenario2_simulates_each_point_once(context, tmp_path, monkeypatch):
    """The 1-core search's top probe is the baseline, not a second run."""
    import repro.harness.scenario2 as scenario2

    campaigns = []

    def spy(*args, **kwargs):
        campaigns.append(run_optimizer(*args, **kwargs))
        return campaigns[-1]

    monkeypatch.setattr(scenario2, "run_optimizer", spy)
    executor = SweepExecutor(cache=ResultCache(tmp_path))
    models = [workload_by_name(app) for app in ("FMM", "Radix")]
    run_scenario2(context, models, core_counts=(1, 2, 16), executor=executor)
    (campaign,) = campaigns
    assert executor.stats.evaluated == (
        campaign.baseline_evaluations + campaign.cold_evaluations
    )
    assert campaign.cache_hits == 0
    assert campaign.evaluations == campaign.cold_evaluations
    assert campaign.evaluations == sum(row.evaluations for row in campaign.rows)
    for row in campaign.rows:
        if row.n == 1 and row.frequency_hz == context.f_nominal:
            assert row.evaluations == 0


def test_optimizer_rows_round_trip_through_the_store(
    context, shared_executor, tmp_path
):
    campaign = run_optimizer(
        context,
        [workload_by_name("Radix")],
        "power-iso",
        core_counts=(1,),
        executor=shared_executor,
    )
    path = tmp_path / "optimizer.json"
    save_results({"optimizer": campaign.rows}, path)
    loaded = load_results(path)["optimizer"]
    assert loaded == campaign.rows
    assert all(isinstance(row, OptimizerRow) for row in loaded)


# ---------------------------------------------------------------------------
# Bugfix regressions.
# ---------------------------------------------------------------------------


def test_old_store_rows_migrate_the_nominal_frequency(tmp_path):
    """Rows stored before ``f_nominal_hz`` existed load with 3.2 GHz."""
    scenario2 = {
        "app": "FMM",
        "n": 4,
        "nominal_speedup": 2.0,
        "actual_speedup": 1.8,
        "frequency_hz": 2.6e9,
        "voltage": 1.002,
        "power_w": 15.0,
        "budget_w": 17.0,
    }
    path = tmp_path / "old.json"
    path.write_text(
        json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "groups": {
                    "scenario2": [{"type": "scenario2", "data": scenario2}],
                },
            }
        ),
        encoding="utf-8",
    )
    loaded = load_results(path)
    s2 = loaded["scenario2"][0]
    assert s2.f_nominal_hz == 3.2e9
    assert not s2.runs_at_nominal


def test_searches_fit_the_compile_cache(context, monkeypatch):
    """More programs than the stream cache holds compile once each.

    The search is round-major, so without grouping every round would
    evict and recompile the programs of the previous one.
    """
    models = [workload_by_name(app) for app in ("FMM", "Radix")]
    counts = (1, 2, 4)
    reference = run_optimizer(context, models, "speedup-budget", core_counts=counts)
    monkeypatch.setattr(stream_cache, "maxsize", 4)
    stream_cache.clear()
    misses = stream_cache.misses
    campaign = run_optimizer(context, models, "speedup-budget", core_counts=counts)
    assert stream_cache.misses - misses == len(models) * len(counts)
    assert campaign.rows == reference.rows
    assert campaign.evaluations == reference.evaluations


def test_scenario2_skips_an_app_whose_baseline_is_quarantined(capsys):
    """A permanently failing 1-core baseline degrades, not crashes.

    The budget search first measures every application's 1-core
    baseline, so index 0 is the first model's 1-core point; a permanent
    fault there must skip that application with a ``[quarantine]``
    notice while the campaign completes.
    """
    context = ExperimentContext(workload_scale=0.03)
    plan = FaultPlan(
        faults=((0, FaultSpec(kind="raise", failing_attempts=ALWAYS)),)
    )
    executor = SweepExecutor(
        retry=RetryPolicy(
            max_retries=1, backoff_base_s=0.0, backoff_max_s=0.0
        ),
        fault_plan=plan,
    )
    results = run_scenario2(
        context,
        [workload_by_name("FMM")],
        core_counts=(2,),
        executor=executor,
    )
    assert results == {"FMM": []}
    assert "[quarantine] FMM" in capsys.readouterr().err
    assert executor.failed
    from repro.harness.store import failed_point_rows

    rows = failed_point_rows(executor.failed)
    assert rows and rows[0].retryable
