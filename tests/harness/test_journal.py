"""Tests for the crash-safe sweep journal (a cached sweep's progress log)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.executor import PointOutcome, SweepFailure
from repro.harness.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    journal_path,
    new_run_id,
)


def read_lines(path):
    """A journal file's lines, parsed: the header, then one per point."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def entry(key, status="ok", attempts=1, error_type="SimulationError", retryable=False):
    """A point event, built the way the executor builds it."""
    failure = None
    if status != "ok":
        failure = SweepFailure(error_type=error_type, message="", retryable=retryable)
    return PointOutcome(
        index=0, key=key, value=None, failure=failure, attempts=attempts
    ).to_event()


class TestPaths:
    def test_journal_path_rejects_traversal(self):
        for bad in ("", "../x", "a/b", ".hidden"):
            with pytest.raises(ConfigurationError):
                journal_path("/tmp/cache", bad)

    def test_new_run_ids_embed_timestamp_and_pid(self):
        run_id = new_run_id()
        stamp, pid = run_id.rsplit("-", 1)
        assert stamp.endswith("Z")
        assert pid.isdigit()


class TestRoundTrip:
    def test_recorded_entries_load_back(self, tmp_path):
        with SweepJournal(tmp_path, "run-a", command="fig1") as journal:
            journal.record(entry("k1", attempts=2))
            journal.record(
                entry(
                    "k2",
                    status="error",
                    error_type="WorkerCrash",
                    retryable=True,
                    attempts=3,
                )
            )
        header, first, second = read_lines(journal.path)
        assert header == {
            "schema": JOURNAL_SCHEMA,
            "run_id": "run-a",
            "command": "fig1",
        }
        assert first == entry("k1", attempts=2)
        assert second["status"] == "error"
        assert second["error_type"] == "WorkerCrash"
        assert second["retryable"]


class TestSweepJournal:
    def test_fresh_run_uniquifies_a_colliding_id(self, tmp_path):
        first = SweepJournal(tmp_path, "run-a")
        first.close()
        second = SweepJournal(tmp_path, "run-a")
        second.close()
        assert second.run_id == "run-a-2"
        assert second.path != first.path

    def test_record_flushes_immediately(self, tmp_path):
        journal = SweepJournal(tmp_path, "run-a")
        journal.record(entry("k1"))
        # Read back through a separate handle while the writer is open:
        # the WAL property (crash loses at most the in-flight point).
        lines = journal.path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[-1])["key"] == "k1"
        journal.close()

    def test_closed_journal_refuses_writes(self, tmp_path):
        journal = SweepJournal(tmp_path, "run-a")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            journal.record(entry("k1"))
