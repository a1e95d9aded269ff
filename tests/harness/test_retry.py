"""Tests for the executor's retry / backoff / quarantine machinery."""

import pytest

from repro.errors import (
    ConfigurationError,
    InfeasibleOperatingPoint,
    ReproError,
)
from repro.harness.executor import (
    ResultCache,
    RetryPolicy,
    SweepExecutor,
)
from repro.harness.faults import ALWAYS, FaultPlan, FaultSpec
from repro.harness.journal import SweepJournal, load_journal


# ---------------------------------------------------------------------------
# Module-level evaluators (picklable for the farm).
# ---------------------------------------------------------------------------


def double_point(point):
    return point * 2


def infeasible_odd_point(point):
    if point % 2:
        raise InfeasibleOperatingPoint(f"point {point} infeasible")
    return point * 2


def buggy_point(point):
    raise ValueError("a genuine bug")


def key_for(point, salt=0):
    return {"kind": "retry-test", "point": point, "salt": salt}


def fast_policy(**kwargs):
    """A retry policy whose backoff does not slow the test suite down."""
    kwargs.setdefault("backoff_base_s", 0.0)
    kwargs.setdefault("backoff_max_s", 0.0)
    return RetryPolicy(**kwargs)


def plan_with(*faults):
    return FaultPlan(seed=0, rate=0.0, faults=tuple(faults))


class TestRetryPolicy:
    def test_validates_fields(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(point_timeout_s=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            max_retries=5,
            backoff_base_s=0.1,
            backoff_factor=2.0,
            backoff_max_s=0.3,
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.3)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.3)

    def test_default_policy_is_not_resilient(self):
        assert not SweepExecutor().resilient
        assert SweepExecutor(retry=fast_policy(max_retries=1)).resilient
        assert SweepExecutor(retry=RetryPolicy(point_timeout_s=5)).resilient
        assert SweepExecutor(fault_plan=FaultPlan(seed=1)).resilient


class TestInlineRetries:
    def test_transient_fault_recovers_within_budget(self):
        plan = plan_with((1, FaultSpec(kind="raise", failing_attempts=2)))
        executor = SweepExecutor(
            retry=fast_policy(max_retries=2), fault_plan=plan
        )
        outcomes = executor.map(double_point, [0, 1, 2])
        assert [o.value for o in outcomes] == [0, 2, 4]
        assert [o.attempts for o in outcomes] == [1, 3, 1]
        assert executor.stats.retries == 2
        assert executor.stats.quarantined == 0

    def test_permanent_fault_is_quarantined(self):
        plan = plan_with((1, FaultSpec(kind="raise", failing_attempts=ALWAYS)))
        executor = SweepExecutor(
            retry=fast_policy(max_retries=2), fault_plan=plan
        )
        outcomes = executor.map(double_point, [0, 1, 2])
        assert [o.ok for o in outcomes] == [True, False, True]
        failure = outcomes[1].failure
        assert failure.error_type == "InjectedFault"
        assert failure.retryable
        assert outcomes[1].attempts == 3
        assert executor.stats.quarantined == 1
        assert executor.failed == [outcomes[1]]

    def test_deterministic_library_error_is_never_retried(self):
        executor = SweepExecutor(retry=fast_policy(max_retries=5))
        outcomes = executor.map(infeasible_odd_point, [0, 1])
        assert outcomes[1].attempts == 1
        assert not outcomes[1].failure.retryable
        assert executor.stats.retries == 0
        assert executor.stats.quarantined == 0

    def test_escaped_bug_is_captured_and_retried(self):
        # Under a retry policy a non-library exception becomes a
        # retryable failure instead of killing the campaign...
        executor = SweepExecutor(retry=fast_policy(max_retries=1))
        outcomes = executor.map(buggy_point, [0])
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_type == "ValueError"
        assert outcomes[0].failure.retryable
        assert outcomes[0].attempts == 2

    def test_without_retry_policy_bugs_still_propagate(self):
        # ...while the default executor keeps the historical semantics.
        with pytest.raises(ValueError):
            SweepExecutor().map(buggy_point, [0])

    def test_map_values_reraises_quarantined_failures(self):
        plan = plan_with((0, FaultSpec(kind="raise", failing_attempts=ALWAYS)))
        executor = SweepExecutor(
            retry=fast_policy(max_retries=1), fault_plan=plan
        )
        with pytest.raises(ReproError):
            executor.map_values(double_point, [0])


class TestCacheInteraction:
    def test_retryable_failures_are_not_cached(self, tmp_path):
        plan = plan_with((1, FaultSpec(kind="raise", failing_attempts=ALWAYS)))
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(
            cache=cache, retry=fast_policy(max_retries=1), fault_plan=plan
        )
        points = [0, 1, 2]
        keys = [key_for(p) for p in points]
        executor.map(double_point, points, key_configs=keys)
        assert len(cache) == 2  # the two successes only

        # A later executor without the fault plan re-attempts point 1
        # from scratch and completes the sweep.
        retry_executor = SweepExecutor(cache=cache)
        outcomes = retry_executor.map(double_point, points, key_configs=keys)
        assert [o.value for o in outcomes] == [0, 2, 4]
        assert [o.cached for o in outcomes] == [True, False, True]

    def test_deterministic_failures_are_still_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache, retry=fast_policy(max_retries=2))
        points = [0, 1]
        keys = [key_for(p) for p in points]
        executor.map(infeasible_odd_point, points, key_configs=keys)
        assert len(cache) == 2  # success and infeasible point both

        warm = SweepExecutor(cache=cache)
        outcomes = warm.map(infeasible_odd_point, points, key_configs=keys)
        assert all(o.cached for o in outcomes)
        assert not outcomes[1].ok


class TestJournalIntegration:
    def test_journal_records_every_keyed_outcome(self, tmp_path):
        plan = plan_with((1, FaultSpec(kind="raise", failing_attempts=ALWAYS)))
        cache = ResultCache(tmp_path / "cache")
        journal = SweepJournal(cache.root, "run-a", command="test")
        executor = SweepExecutor(
            cache=cache,
            retry=fast_policy(max_retries=1),
            fault_plan=plan,
            journal=journal,
        )
        points = [0, 1, 2]
        keys = [key_for(p) for p in points]
        outcomes = executor.map(double_point, points, key_configs=keys)
        journal.close()

        _, entries = load_journal(journal.path)
        assert len(entries) == 3
        by_key = {o.key: o for o in outcomes}
        for key, entry in entries.items():
            assert entry == by_key[key].to_event()
        failed = [e for e in entries.values() if e["status"] == "error"]
        assert len(failed) == 1
        assert failed[0]["retryable"]
        assert failed[0]["attempts"] == 2

    def test_unkeyed_points_are_not_journalled(self, tmp_path):
        journal = SweepJournal(tmp_path, "run-a", command="test")
        executor = SweepExecutor(journal=journal)
        executor.map(double_point, [0, 1])
        journal.close()
        _, entries = load_journal(journal.path)
        assert entries == {}


class TestProcessFarm:
    def test_kill_fault_recovers_via_worker_replacement(self):
        plan = plan_with((1, FaultSpec(kind="kill", failing_attempts=1)))
        executor = SweepExecutor(
            jobs=2, retry=fast_policy(max_retries=2), fault_plan=plan
        )
        outcomes = executor.map(double_point, [0, 1, 2, 3])
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        assert outcomes[1].attempts == 2
        assert executor.stats.retries == 1

    def test_killed_worker_hands_on_the_rest_of_its_run(self):
        # 16 points on 2 workers go out in runs of two; point 0's worker
        # dies, so point 1 (its run-mate) must reach another worker.
        plan = plan_with((0, FaultSpec(kind="kill", failing_attempts=1)))
        executor = SweepExecutor(
            jobs=2, retry=fast_policy(max_retries=1), fault_plan=plan
        )
        outcomes = executor.map(double_point, list(range(16)))
        assert [o.value for o in outcomes] == [2 * p for p in range(16)]
        assert [o.attempts for o in outcomes] == [2] + [1] * 15

    def test_permanent_kill_is_quarantined_with_crash_failure(self):
        plan = plan_with((0, FaultSpec(kind="kill", failing_attempts=ALWAYS)))
        executor = SweepExecutor(
            jobs=2, retry=fast_policy(max_retries=1), fault_plan=plan
        )
        outcomes = executor.map(double_point, [0, 1])
        assert not outcomes[0].ok
        assert outcomes[0].failure.error_type == "WorkerCrash"
        assert outcomes[0].failure.retryable
        assert "exit code 77" in outcomes[0].failure.message
        assert outcomes[1].ok

    def test_hang_fault_trips_the_deadline_then_recovers(self):
        plan = plan_with(
            (1, FaultSpec(kind="hang", failing_attempts=1, hang_s=30.0))
        )
        executor = SweepExecutor(
            retry=fast_policy(max_retries=1, point_timeout_s=0.3),
            fault_plan=plan,
        )
        outcomes = executor.map(double_point, [0, 1, 2])
        assert [o.value for o in outcomes] == [0, 2, 4]
        assert outcomes[1].attempts == 2

    def test_timeout_without_faults_quarantines_as_point_timeout(self):
        plan = plan_with(
            (0, FaultSpec(kind="hang", failing_attempts=ALWAYS, hang_s=30.0))
        )
        executor = SweepExecutor(
            retry=fast_policy(point_timeout_s=0.2), fault_plan=plan
        )
        outcomes = executor.map(double_point, [0, 1])
        assert outcomes[0].failure.error_type == "PointTimeout"
        assert outcomes[0].failure.retryable
        assert outcomes[1].ok

    def test_farm_results_are_in_input_order(self):
        plan = plan_with((0, FaultSpec(kind="raise", failing_attempts=1)))
        executor = SweepExecutor(
            jobs=3, retry=fast_policy(max_retries=1), fault_plan=plan
        )
        outcomes = executor.map(double_point, list(range(9)))
        assert [o.index for o in outcomes] == list(range(9))
        assert [o.value for o in outcomes] == [2 * p for p in range(9)]

    def test_faulted_parallel_matches_clean_serial(self):
        # The headline equivalence: a recovering chaos run converges to
        # the fault-free serial sweep's values exactly.
        clean = SweepExecutor().map(infeasible_odd_point, list(range(12)))
        plan = FaultPlan(seed=5, rate=0.4, kinds=("raise", "kill"))
        executor = SweepExecutor(
            jobs=4, retry=fast_policy(max_retries=3), fault_plan=plan
        )
        chaotic = executor.map(infeasible_odd_point, list(range(12)))
        assert [o.value for o in chaotic] == [o.value for o in clean]
        assert [o.ok for o in chaotic] == [o.ok for o in clean]
        # The stats are one fold over the outcomes.
        assert executor.stats.retries == sum(o.attempts - 1 for o in chaotic)
        assert executor.stats.retries > 0
        assert executor.stats.quarantined == sum(
            1 for o in chaotic if not o.ok and o.failure.retryable
        )
