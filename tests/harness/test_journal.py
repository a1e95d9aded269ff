"""Tests for the crash-safe sweep journal behind ``--resume``."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.executor import PointOutcome, SweepFailure
from repro.harness.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    journal_path,
    list_run_ids,
    load_journal,
    new_run_id,
)


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

    def test_list_run_ids_sorts_lexicographically(self, tmp_path):
        for run_id in ("20260102T000000Z-1", "20260101T000000Z-9"):
            SweepJournal(tmp_path, run_id).close()
        assert list_run_ids(tmp_path) == [
            "20260101T000000Z-9",
            "20260102T000000Z-1",
        ]

    def test_list_run_ids_empty_without_journal_dir(self, tmp_path):
        assert list_run_ids(tmp_path) == []


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
        header, entries = load_journal(journal.path)
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["command"] == "fig1"
        assert entries["k1"] == entry("k1", attempts=2)
        assert entries["k2"]["status"] == "error"
        assert entries["k2"]["error_type"] == "WorkerCrash"
        assert entries["k2"]["retryable"]

    def test_later_entries_supersede_earlier_ones(self, tmp_path):
        with SweepJournal(tmp_path, "run-a") as journal:
            journal.record(entry("k", status="error", retryable=True))
            journal.record(entry("k", status="ok", attempts=2))
        _, entries = load_journal(journal.path)
        assert entries["k"]["status"] == "ok"

    def test_torn_tail_is_tolerated(self, tmp_path):
        with SweepJournal(tmp_path, "run-a") as journal:
            journal.record(entry("k1"))
        path = journal.path
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "status": "o')  # crash mid-write
        _, entries = load_journal(path)
        assert set(entries) == {"k1"}

    def test_rejects_missing_or_foreign_header(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="missing journal header"):
            load_journal(path)
        path.write_text('{"schema": "weird"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="journal schema 'weird'"):
            load_journal(path)


class TestSweepJournal:
    def test_resume_requires_an_existing_journal(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no journal for run"):
            SweepJournal(tmp_path, "missing", resume=True)

    def test_resume_loads_completed_and_keeps_appending(self, tmp_path):
        with SweepJournal(tmp_path, "run-a", command="fig2") as journal:
            journal.record(entry("k1"))
        with SweepJournal(
            tmp_path, "run-a", command="fig2", resume=True
        ) as resumed:
            assert set(resumed.completed) == {"k1"}
            resumed.record(entry("k2"))
        _, entries = load_journal(resumed.path)
        assert set(entries) == {"k1", "k2"}

    def test_resume_refuses_a_different_command(self, tmp_path):
        SweepJournal(tmp_path, "run-a", command="fig1").close()
        with pytest.raises(ConfigurationError, match="refusing to resume"):
            SweepJournal(tmp_path, "run-a", command="fig3", resume=True)

    def test_fresh_run_uniquifies_a_colliding_id(self, tmp_path):
        first = SweepJournal(tmp_path, "run-a")
        first.close()
        second = SweepJournal(tmp_path, "run-a")
        second.close()
        assert second.run_id == "run-a-2"
        assert second.path != first.path

    def test_counts_treat_any_non_ok_status_as_failed(self, tmp_path):
        with SweepJournal(tmp_path, "run-a") as journal:
            journal.record(entry("k1"))
            journal.record(entry("k2", status="error", retryable=True))
            journal.record(entry("k3", status="error"))
            assert journal.counts() == {"ok": 1, "failed": 2}

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
