"""The Section 3.3 calibration is a property of the fixed Table 1
machine: one cache entry per model source, replayed bitwise by every
context."""

import dataclasses

import pytest

import repro.harness.context as context_module
from repro.errors import ConfigurationError
from repro.harness import ExperimentContext
from repro.harness.executor import PointOutcome, ResultCache, SweepExecutor, config_key
from repro.harness.profiling import SimPointTask, simulate_points
from repro.workloads.splash2 import SPLASH2


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


def _context(cache, workload_scale=1.0):
    """A context calibrated through an executor over ``cache``."""
    return ExperimentContext(workload_scale, executor=SweepExecutor(cache=cache))


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
        stored = _context(cache, 0.05).calibration
        replayed = _context(cache, 0.05).calibration
        fresh = ExperimentContext(workload_scale=0.05).calibration
        assert len(calibrations) == 2  # the cold context and the uncached one
        assert replayed == stored == fresh
        assert _bits(replayed) == _bits(fresh)
        assert len(_calibration_files(cache)) == 1

    def test_one_entry_serves_every_workload_scale(self, calibrations, tmp_path):
        cache = ResultCache(tmp_path)
        _context(cache, 0.05)
        _context(cache, 0.1)
        assert len(calibrations) == 1
        assert len(cache) == 1

    def test_the_model_source_keys_every_entry(self, monkeypatch, tmp_path):
        import repro.harness.executor as executor_module

        class KeyRecorder:
            """An executor that only records the keys it is asked for."""

            def map(self, fn, points, key_configs, precompile):
                self.keys = [config_key(config) for config in key_configs]
                return []

        cache = ResultCache(tmp_path)
        task = SimPointTask(spec=SPLASH2[0].spec, n=1)

        def keys():
            context = _context(cache, 0.05)
            recorder = KeyRecorder()
            simulate_points(context, recorder, [task])
            calibration = config_key({"kind": "power-calibration"})
            assert cache.path_for(calibration).exists()
            return context, calibration, recorder.keys[0]

        _, calibration, point = keys()
        monkeypatch.setattr(executor_module, "model_fingerprint", lambda: "edited")
        context, edited_calibration, edited_point = keys()
        assert edited_calibration != calibration
        assert edited_point != point
        assert context.fingerprint() == {
            "kind": "experiment-context",
            "workload_scale": 0.05,
        }

    def test_another_model_misses(self, calibrations, monkeypatch, tmp_path):
        import repro.harness.executor as executor_module

        cache = ResultCache(tmp_path)
        _context(cache)
        monkeypatch.setattr(executor_module, "model_fingerprint", lambda: "edited")
        _context(cache)
        assert len(calibrations) == 2
        assert len(_calibration_files(cache)) == 2

    def test_an_entry_of_another_type_is_a_configuration_error(self, calibrations, tmp_path):
        cache = ResultCache(tmp_path)
        _context(cache)
        (entry,) = _calibration_files(cache)
        key = entry.stem
        cache.put(key, PointOutcome(index=0, key=key, value=(1.0, 2.0)))
        with pytest.raises(ConfigurationError, match=f"cache entry {key} holds a tuple"):
            _context(cache)
        assert len(calibrations) == 1
