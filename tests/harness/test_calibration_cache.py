"""The Section 3.3 calibration is a property of the machine: one cache
entry per machine configuration, replayed bitwise by every context
that shares the machine."""

import dataclasses

import pytest

import repro.harness.context as context_module
from repro.harness import ExperimentContext
from repro.harness.executor import PointOutcome, ResultCache
from repro.sim.cmp import CMPConfig


@pytest.fixture
def calibrations(monkeypatch):
    """Count the calibration microbenchmarks actually run."""
    runs = []
    calibrate = context_module.calibrate_power_model

    def counting(*args, **kwargs):
        runs.append(args[0])
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(context_module, "calibrate_power_model", counting)
    return runs


def _bits(calibration):
    return [value.hex() for value in dataclasses.astuple(calibration)]


def _calibration_files(cache):
    return [
        path
        for path in sorted(cache.root.glob("*.json"))
        if "PowerCalibration" in path.read_text(encoding="utf-8")
    ]


class TestCalibrationMemo:
    def test_replay_equals_a_fresh_calibration_bitwise(self, calibrations, tmp_path):
        cache = ResultCache(tmp_path)
        stored = ExperimentContext(workload_scale=0.05, cache=cache).calibration
        replayed = ExperimentContext(workload_scale=0.05, cache=cache).calibration
        fresh = ExperimentContext(workload_scale=0.05).calibration
        assert len(calibrations) == 2  # the cold context and the uncached one
        assert replayed == stored == fresh
        assert _bits(replayed) == _bits(fresh)
        assert len(_calibration_files(cache)) == 1

    def test_one_entry_serves_every_workload_scale(self, calibrations, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentContext(workload_scale=0.05, cache=cache)
        ExperimentContext(workload_scale=0.1, cache=cache)
        assert len(calibrations) == 1
        assert len(cache) == 1

    def test_another_machine_misses(self, calibrations, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentContext(cache=cache)
        ExperimentContext(ambient_celsius=40.0, cache=cache)
        ExperimentContext(cmp_config=CMPConfig(n_cores=4), cache=cache)
        assert len(calibrations) == 3
        assert len(_calibration_files(cache)) == 3

    def test_another_model_misses(self, calibrations, monkeypatch, tmp_path):
        import repro.harness.executor as executor_module

        cache = ResultCache(tmp_path)
        ExperimentContext(cache=cache)
        monkeypatch.setattr(executor_module, "model_fingerprint", lambda: "edited")
        ExperimentContext(cache=cache)
        assert len(calibrations) == 2
        assert len(_calibration_files(cache)) == 2

    def test_an_entry_of_another_type_counts_as_a_miss(self, calibrations, tmp_path):
        cache = ResultCache(tmp_path)
        ExperimentContext(cache=cache)
        (entry,) = _calibration_files(cache)
        key = entry.stem
        cache.put(key, PointOutcome(index=0, key=key, value=(1.0, 2.0)))
        calibration = ExperimentContext(cache=cache).calibration
        assert len(calibrations) == 2
        assert calibration == ExperimentContext().calibration
