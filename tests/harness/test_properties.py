"""Property-based tests for the fault-tolerance layer (hypothesis).

Three families of invariant, each checked over a large space of
generated inputs:

* **chaos equivalence** — a sweep sabotaged by any recoverable fault
  plan converges to exactly the fault-free serial result;
* **resume equivalence** — a sweep interrupted by quarantine and then
  resumed (cache replay plus re-attempts) is indistinguishable from an
  uninterrupted run;
* **codec/journal idempotence** — cache round-trips and journal
  round-trips are lossless for every representable value.

Together the suites here generate well over 200 distinct fault plans
per run.  Plans are restricted to ``raise`` faults: they exercise the
full retry/quarantine/resume logic in-process, which keeps hundreds of
examples affordable (the process-farm kinds are covered deterministically
in ``test_retry.py`` and ``test_chaos.py``).
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleOperatingPoint
from repro.harness.executor import (
    PointOutcome,
    ResultCache,
    RetryPolicy,
    SweepExecutor,
    SweepFailure,
    config_key,
    decode_value,
    encode_value,
)
from repro.harness.faults import FaultPlan
from repro.harness.journal import SweepJournal, load_journal
from repro.harness.profiling import SimPointRow


# ---------------------------------------------------------------------------
# Evaluators and strategies.
# ---------------------------------------------------------------------------


def point_event(key, failed, attempts, cached, retryable):
    """The journal line of one point, as the executor's fold builds it."""
    failure = (
        SweepFailure(error_type="WorkerCrash", message="", retryable=retryable)
        if failed
        else None
    )
    return PointOutcome(
        index=0, key=key, value=None, failure=failure, cached=cached,
        attempts=attempts,
    ).to_event()


def evaluate(point):
    """Deterministic evaluator with a band of infeasible physics."""
    if point % 7 == 3:
        raise InfeasibleOperatingPoint(f"point {point} infeasible")
    return SimPointRow(
        app=f"app-{point}",
        n=point,
        frequency_hz=3.2e9,
        voltage=1.1,
        execution_time_ps=1000.0 * (point + 1),
        total_power_w=float(point) * 1.5,
        core_power_density_w_m2=1.0,
        average_temperature_c=45.0,
        peak_temperature_c=46.0,
        average_cpi=1.0,
        l1_miss_rate=0.01,
        memory_stall_fraction=0.1,
        bus_utilisation=0.2,
    )


def key_for(point):
    return {"kind": "property-point", "point": point}


def fast_policy(max_retries):
    return RetryPolicy(
        max_retries=max_retries, backoff_base_s=0.0, backoff_max_s=0.0
    )


def outcome_signature(outcome):
    """Everything observable about a point's result (not its journey)."""
    failure = outcome.failure
    return (
        outcome.index,
        outcome.value,
        None if failure is None else (failure.error_type, failure.message),
    )


points_lists = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=10, unique=True
)

recoverable_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.floats(min_value=0.0, max_value=0.8),
    kinds=st.just(("raise",)),
    max_failing_attempts=st.integers(min_value=1, max_value=2),
    permanent_rate=st.just(0.0),
)

lossy_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**16),
    rate=st.floats(min_value=0.1, max_value=1.0),
    kinds=st.just(("raise",)),
    max_failing_attempts=st.integers(min_value=1, max_value=3),
    permanent_rate=st.floats(min_value=0.0, max_value=1.0),
)

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


# ---------------------------------------------------------------------------
# Chaos equivalence.
# ---------------------------------------------------------------------------


class TestChaosEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(plan=recoverable_plans, points=points_lists)
    def test_recoverable_chaos_matches_clean_serial(self, plan, points):
        clean = SweepExecutor().map(evaluate, points)
        chaotic = SweepExecutor(
            retry=fast_policy(plan.max_failing_attempts), fault_plan=plan
        ).map(evaluate, points)
        assert [outcome_signature(o) for o in chaotic] == [
            outcome_signature(o) for o in clean
        ]

    @settings(max_examples=40, deadline=None)
    @given(plan=lossy_plans, points=points_lists)
    def test_lossy_chaos_quarantines_but_never_corrupts(self, plan, points):
        # Whatever the plan does, surviving points carry exactly the
        # clean values, and every loss is an explicitly retryable
        # quarantine — never a silently wrong result.
        clean = SweepExecutor().map(evaluate, points)
        chaotic = SweepExecutor(
            retry=fast_policy(1), fault_plan=plan
        ).map(evaluate, points)
        for before, after in zip(clean, chaotic):
            if after.failure is not None and after.failure.retryable:
                assert after.value is None
            else:
                assert outcome_signature(after) == outcome_signature(before)


# ---------------------------------------------------------------------------
# Resume equivalence.
# ---------------------------------------------------------------------------


class TestResumeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(plan=lossy_plans, points=points_lists)
    def test_interrupted_then_resumed_matches_uninterrupted(
        self, plan, points
    ):
        keys = [key_for(p) for p in points]
        clean = SweepExecutor().map(evaluate, points)
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root)
            with SweepJournal(cache.root, "run", command="prop") as journal:
                first = SweepExecutor(
                    cache=cache,
                    retry=fast_policy(1),
                    fault_plan=plan,
                    journal=journal,
                )
                interrupted = first.map(evaluate, points, key_configs=keys)
            with SweepJournal(
                cache.root, "run", command="prop", resume=True
            ) as journal:
                second = SweepExecutor(
                    cache=ResultCache(root), journal=journal
                )
                resumed = second.map(evaluate, points, key_configs=keys)
                counts = journal.counts()

        assert [outcome_signature(o) for o in resumed] == [
            outcome_signature(o) for o in clean
        ]
        # Only quarantined points were re-evaluated; every point the
        # first run completed (ok or deterministically infeasible)
        # replayed from the cache.
        for before, after in zip(interrupted, resumed):
            survived = (
                before.failure is None or not before.failure.retryable
            )
            assert after.cached == survived
        # And the journal's final state agrees with the clean run.
        assert counts["failed"] == sum(1 for o in clean if not o.ok)

    @settings(max_examples=25, deadline=None)
    @given(points=points_lists)
    def test_resume_of_a_complete_run_evaluates_nothing(self, points):
        keys = [key_for(p) for p in points]
        with tempfile.TemporaryDirectory() as root:
            SweepExecutor(cache=ResultCache(root)).map(
                evaluate, points, key_configs=keys
            )
            warm = SweepExecutor(cache=ResultCache(root))
            outcomes = warm.map(evaluate, points, key_configs=keys)
        assert warm.stats.evaluated == 0
        assert all(o.cached for o in outcomes)


# ---------------------------------------------------------------------------
# Codec and journal idempotence.
# ---------------------------------------------------------------------------


class TestRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(value=json_values)
    def test_cache_codec_round_trips_losslessly(self, value):
        assert decode_value(encode_value(value)) == value

    @settings(max_examples=60, deadline=None)
    @given(
        config=st.dictionaries(
            st.text(min_size=1, max_size=8), json_leaves, max_size=5
        )
    )
    def test_config_key_is_order_insensitive_and_stable(self, config):
        shuffled = dict(reversed(list(config.items())))
        assert config_key(config) == config_key(shuffled)
        assert config_key(config) == config_key(dict(config))

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.builds(
                point_event,
                key=st.text(
                    alphabet="abcdef0123456789", min_size=1, max_size=8
                ),
                failed=st.booleans(),
                attempts=st.integers(min_value=1, max_value=9),
                cached=st.booleans(),
                retryable=st.booleans(),
            ),
            max_size=12,
        )
    )
    def test_journal_round_trips_latest_entry_per_key(self, entries):
        expected = {}
        for entry in entries:
            expected[entry["key"]] = entry
        with tempfile.TemporaryDirectory() as root:
            with SweepJournal(root, "run", command="prop") as journal:
                for entry in entries:
                    journal.record(entry)
                path = journal.path
            _, loaded = load_journal(path)
        assert loaded == expected
