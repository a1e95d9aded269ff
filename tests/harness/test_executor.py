"""Tests for the parallel sweep executor and its memoizing cache."""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.harness.executor as executor_module
from repro.errors import ConfigurationError, InfeasibleOperatingPoint, ReproError
from repro.harness.executor import (
    ResultCache,
    RetryPolicy,
    SweepExecutor,
    SweepFailure,
    WorkerBug,
    config_key,
    decode_value,
    encode_value,
)
from repro.harness.profiling import SimPointRow
from repro.harness.schema import SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Module-level evaluators (picklable, so they work under jobs > 1).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Probe:
    """Tiny dataclass result, JSON-flat, so it exercises the cache codec.

    Lives outside ``repro.*``; cacheable values decode through the
    dataclass tag only for ``repro.`` types, so cache tests use a repro
    row type instead.
    """

    point: int
    square: int


def square_point(point):
    return Probe(point=point, square=point * point)


def row_point(point):
    """Evaluator returning a real (cacheable) harness row type."""
    return SimPointRow(
        app=f"app-{point}",
        n=point,
        frequency_hz=3.2e9,
        voltage=1.1,
        execution_time_ps=1000 * (point + 1),
        total_power_w=float(point),
        core_power_density_w_m2=1.0,
        average_temperature_c=45.0,
        peak_temperature_c=46.0,
        average_cpi=1.0,
        l1_miss_rate=0.01,
        memory_stall_fraction=0.1,
        bus_utilisation=0.2,
    )


def flaky_point(point):
    if point % 2:
        raise InfeasibleOperatingPoint(f"point {point} infeasible")
    return point * 10


def buggy_point(point):
    raise ValueError("a genuine bug, not infeasible physics")


def unencodable_point(point):
    return object()


class TwoArgError(Exception):
    """Pickles, but cannot unpickle: ``__init__`` needs two arguments."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def unpicklable_bug_point(point):
    raise TwoArgError("point", point)


def pid_point(point):
    return os.getpid()


def marking_row_point(args):
    """Like row_point but leaves a marker file proving it really ran."""
    point, mark_dir = args
    Path(mark_dir, f"ran-{point}").touch()
    return row_point(point)


class CountingEvaluator:
    """Spy evaluator for jobs=1 runs: records every point it computes."""

    def __init__(self):
        self.calls = []

    def __call__(self, point):
        self.calls.append(point)
        return row_point(point)


def key_for(point, salt=0):
    return {"kind": "test-point", "point": point, "salt": salt}


# ---------------------------------------------------------------------------
# Value codec.
# ---------------------------------------------------------------------------


class TestCodec:
    def test_round_trips_scalars_and_containers(self):
        value = {
            "a": [1, 2.5, None, True, "s"],
            "b": (1, (2, 3)),
            "c": {"nested": (4,)},
        }
        assert decode_value(encode_value(value)) == value

    def test_round_trips_repro_dataclasses(self):
        row = row_point(3)
        restored = decode_value(encode_value(row))
        assert restored == row
        assert type(restored) is SimPointRow

    def test_tuples_stay_tuples(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert isinstance(decode_value(encode_value((1, 2))), tuple)

    def test_rejects_non_string_dict_keys(self):
        with pytest.raises(ConfigurationError):
            encode_value({1: "x"})

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(ConfigurationError):
            encode_value(object())

    def test_decode_refuses_foreign_types(self):
        evil = {
            "__repro__": "dataclass",
            "type": "os.path.Path",
            "fields": {},
        }
        with pytest.raises(ConfigurationError, match="refusing"):
            decode_value(evil)

    def test_decode_rejects_field_mismatch(self):
        encoded = encode_value(row_point(1))
        encoded["fields"]["bogus"] = 1
        with pytest.raises(ConfigurationError):
            decode_value(encoded)


class TestConfigKey:
    def test_stable_for_equal_configs(self):
        assert config_key(key_for(3)) == config_key(key_for(3))

    def test_dict_order_is_irrelevant(self):
        assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})

    def test_changes_with_any_field(self):
        assert config_key(key_for(3)) != config_key(key_for(4))
        assert config_key(key_for(3)) != config_key(key_for(3, salt=1))

    def test_changes_with_schema_version(self, monkeypatch):
        before = config_key(key_for(3))
        monkeypatch.setattr(executor_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert config_key(key_for(3)) != before

    def test_distinguishes_dataclass_types(self):
        assert config_key(Probe(1, 1)) != config_key({"point": 1, "square": 1})


# ---------------------------------------------------------------------------
# Executor semantics (no cache).
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)

    def test_serial_results_in_input_order(self):
        outcomes = SweepExecutor().map(square_point, [5, 1, 3])
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.value for o in outcomes] == [Probe(5, 25), Probe(1, 1), Probe(3, 9)]

    def test_parallel_matches_serial_bitwise(self):
        points = list(range(13))
        serial = SweepExecutor(jobs=1).map(square_point, points)
        parallel = SweepExecutor(jobs=4).map(square_point, points)
        assert [o.value for o in parallel] == [o.value for o in serial]
        assert [o.index for o in parallel] == [o.index for o in serial]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_library_errors_become_typed_failures(self, jobs):
        points = list(range(6))
        outcomes = SweepExecutor(jobs=jobs).map(flaky_point, points)
        assert len(outcomes) == 6
        for point, outcome in zip(points, outcomes):
            if point % 2:
                assert not outcome.ok
                assert outcome.failure.error_type == "InfeasibleOperatingPoint"
                with pytest.raises(InfeasibleOperatingPoint):
                    outcome.unwrap()
            else:
                assert outcome.ok
                assert outcome.value == point * 10

    def test_failure_count_in_stats(self):
        executor = SweepExecutor()
        executor.map(flaky_point, list(range(6)))
        assert executor.stats.evaluated == 6
        assert executor.stats.failures == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_non_library_errors_propagate(self, jobs):
        # Two points, so jobs=2 really runs the farm: the child ships the
        # bug back and the coordinator re-raises it with its own type.
        with pytest.raises(ValueError):
            SweepExecutor(jobs=jobs).map(buggy_point, [1, 2])

    def test_farm_bug_carries_the_childs_traceback(self):
        with pytest.raises(ValueError) as caught:
            SweepExecutor(jobs=2).map(buggy_point, [1, 2])
        cause = caught.value.__cause__
        assert cause is not None
        assert "in buggy_point" in str(cause)
        assert "a genuine bug" in str(cause)

    def test_farm_bug_that_cannot_unpickle_still_propagates(self):
        with pytest.raises(WorkerBug, match="TwoArgError: point: [12]") as caught:
            SweepExecutor(jobs=2).map(unpicklable_bug_point, [1, 2])
        assert "in unpicklable_bug_point" in str(caught.value.__cause__)

    def test_resilient_single_pending_point_runs_in_the_farm(self):
        # A lone pending point is often the one whose worker crashed
        # last time: only a child process can contain a second crash.
        executor = SweepExecutor(jobs=2, retry=RetryPolicy(max_retries=1))
        (outcome,) = executor.map(pid_point, [0])
        assert outcome.lane == "farm"
        assert outcome.value != os.getpid()

    def test_plain_single_pending_point_runs_inline(self):
        (outcome,) = SweepExecutor(jobs=2).map(pid_point, [0])
        assert outcome.lane == "inline"
        assert outcome.value == os.getpid()

    def test_farm_forks_at_most_jobs_workers(self):
        outcomes = SweepExecutor(jobs=2).map(pid_point, list(range(12)))
        pids = {o.value for o in outcomes}
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_map_values_raises_on_failure(self):
        with pytest.raises(InfeasibleOperatingPoint):
            SweepExecutor().map_values(flaky_point, [0, 1])

    def test_key_config_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor().map(square_point, [1, 2], key_configs=[key_for(1)])

    def test_failure_round_trips_to_exception(self):
        failure = SweepFailure(error_type="InfeasibleOperatingPoint", message="m")
        assert isinstance(failure.to_exception(), InfeasibleOperatingPoint)
        unknown = SweepFailure(error_type="NoSuchError", message="m")
        assert isinstance(unknown.to_exception(), ReproError)


# ---------------------------------------------------------------------------
# Cache correctness.
# ---------------------------------------------------------------------------


def run_cached(root, points, salts=None):
    """One executor invocation with a fresh spy; returns (rows, spy, executor)."""
    salts = salts if salts is not None else [0] * len(points)
    cache = ResultCache(root)
    executor = SweepExecutor(cache=cache)
    spy = CountingEvaluator()
    rows = executor.map_values(
        spy,
        points,
        key_configs=[key_for(p, salt) for p, salt in zip(points, salts)],
    )
    return rows, spy, executor


class TestCache:
    def test_cold_then_warm_identical_with_zero_recomputation(self, tmp_path):
        points = [1, 2, 3, 4]
        cold, spy_cold, ex_cold = run_cached(tmp_path, points)
        assert spy_cold.calls == points
        assert ex_cold.stats.evaluated == 4 and ex_cold.stats.cache_hits == 0

        warm, spy_warm, ex_warm = run_cached(tmp_path, points)
        assert spy_warm.calls == []
        assert ex_warm.stats.evaluated == 0 and ex_warm.stats.cache_hits == 4
        assert warm == cold

    def test_warm_outcomes_are_marked_cached(self, tmp_path):
        points = [1, 2]
        run_cached(tmp_path, points)
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        outcomes = executor.map(
            CountingEvaluator(), points, key_configs=[key_for(p) for p in points]
        )
        assert all(o.cached for o in outcomes)
        assert executor.stats.cache_hits == 2

    def test_mutating_one_config_invalidates_exactly_that_entry(self, tmp_path):
        points = [1, 2, 3]
        run_cached(tmp_path, points)
        # Change only point 2's configuration ("salt" stands in for any
        # input the row depends on).
        _, spy, executor = run_cached(tmp_path, points, salts=[0, 7, 0])
        assert spy.calls == [2]
        assert executor.stats.evaluated == 1 and executor.stats.cache_hits == 2

    def test_schema_bump_invalidates_everything(self, monkeypatch, tmp_path):
        points = [1, 2, 3]
        run_cached(tmp_path, points)
        monkeypatch.setattr(executor_module, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        _, spy, executor = run_cached(tmp_path, points)
        assert spy.calls == points
        assert executor.stats.cache_hits == 0

    def test_corrupted_entry_is_quarantined_and_recomputed(self, tmp_path):
        points = [1, 2, 3]
        cold, _, _ = run_cached(tmp_path, points)
        victim = ResultCache(tmp_path).path_for(config_key(key_for(2)))
        victim.write_text("{ truncated garbage", encoding="utf-8")

        warm, spy, executor = run_cached(tmp_path, points)
        assert warm == cold
        assert spy.calls == [2]
        assert executor.cache.quarantined == 1
        quarantined = list(tmp_path.glob("*.quarantined"))
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(victim.name)

    def test_valid_json_with_wrong_key_is_quarantined(self, tmp_path):
        points = [1]
        run_cached(tmp_path, points)
        victim = ResultCache(tmp_path).path_for(config_key(key_for(1)))
        document = json.loads(victim.read_text())
        document["key"] = "0" * 64  # plausible but wrong
        victim.write_text(json.dumps(document), encoding="utf-8")
        _, spy, executor = run_cached(tmp_path, points)
        assert spy.calls == [1]
        assert executor.cache.quarantined == 1

    def test_typed_failures_are_cached_too(self, tmp_path):
        points = [0, 1, 2, 3]
        cache = ResultCache(tmp_path)
        cold = SweepExecutor(cache=cache).map(
            flaky_point, points, key_configs=[key_for(p) for p in points]
        )
        warm_executor = SweepExecutor(cache=ResultCache(tmp_path))
        warm = warm_executor.map(
            buggy_point,  # would explode if any point were re-evaluated
            points,
            key_configs=[key_for(p) for p in points],
        )
        assert warm_executor.stats.evaluated == 0
        assert [(o.ok, o.value, o.failure) for o in warm] == [
            (o.ok, o.value, o.failure) for o in cold
        ]

    def test_unencodable_values_are_returned_but_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        outcomes = executor.map(
            unencodable_point, [1], key_configs=[key_for(1)]
        )
        assert outcomes[0].ok
        assert executor.stats.uncacheable == 1
        assert len(cache) == 0

    def test_unusable_cache_root_is_a_configuration_error(self, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("")
        with pytest.raises(ConfigurationError, match="occupied"):
            ResultCache(not_a_dir)

    def test_no_key_configs_means_no_caching(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).map(row_point, [1, 2])
        assert len(cache) == 0

    def test_parallel_warm_run_spawns_no_evaluations(self, tmp_path):
        """End to end: a cached jobs=4 re-run provably runs nothing.

        Worker-side marker files prove no child process re-evaluated a
        point, independent of the parent-side stats counters.
        """
        cache_dir = tmp_path / "cache"
        marks = tmp_path / "marks"
        marks.mkdir()
        points = [(p, str(marks)) for p in range(8)]
        keys = [key_for(p) for p in range(8)]

        cold_ex = SweepExecutor(jobs=4, cache=ResultCache(cache_dir))
        cold = cold_ex.map_values(marking_row_point, points, key_configs=keys)
        assert len(list(marks.iterdir())) == 8

        for mark in marks.iterdir():
            mark.unlink()
        warm_ex = SweepExecutor(jobs=4, cache=ResultCache(cache_dir))
        warm = warm_ex.map_values(marking_row_point, points, key_configs=keys)
        assert list(marks.iterdir()) == []
        assert warm_ex.stats.evaluated == 0
        assert warm == cold
