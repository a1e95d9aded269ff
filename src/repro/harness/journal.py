"""Crash-safe sweep journals: the write-ahead log behind ``--resume``.

The :class:`~repro.harness.executor.ResultCache` holds the *values* of
completed sweep points; what it cannot tell you is which run computed
them, which points failed (and how hard), or how far an interrupted
campaign got.  The journal records exactly that: one JSONL file per run
id, written alongside the cache under ``<cache>/journal/``, with a
header line followed by one line per completed point — appended and
flushed as each point finishes, so a crash or Ctrl-C loses at most the
point in flight.  Each line is the point's one record
(:meth:`~repro.harness.executor.PointOutcome.to_event`), the same
``point`` event a telemetry run appends to ``events.jsonl``, so on a
fresh run the two files agree line for line after the header.

Resume semantics (``repro fig1 --cache DIR --resume RUN_ID``):

* points journalled ``ok`` (or ``error`` with a *deterministic* library
  error) were persisted to the cache and replay from it — bitwise
  identical to an uninterrupted run;
* points journalled ``error`` with a retryable error (a crash, a
  timeout, an injected fault) were *not* cached, so the resumed run
  re-attempts them from scratch;
* points never journalled are evaluated as usual.

The cache alone decides what a resumed run replays; the journal names
the run and reports its progress.  The file is append-only and
torn-tail tolerant: a line truncated by a crash mid-write is ignored on
load.  Lines for the same key supersede earlier ones, so a resumed
run's journal reads as the final state of every point it ever touched.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro.errors import ConfigurationError
from repro.telemetry.manifest import read_jsonl

PathLike = Union[str, Path]

JOURNAL_SCHEMA = "repro-journal-v2"

#: Subdirectory of a cache root that holds the per-run journals.
JOURNAL_DIRNAME = "journal"


def journal_dir(cache_root: PathLike) -> Path:
    """The journal directory belonging to a cache root."""
    return Path(cache_root) / JOURNAL_DIRNAME


def journal_path(cache_root: PathLike, run_id: str) -> Path:
    """The journal file for one run id under a cache root."""
    if not run_id or "/" in run_id or run_id.startswith("."):
        raise ConfigurationError(f"invalid run id {run_id!r}")
    return journal_dir(cache_root) / f"{run_id}.jsonl"


def list_run_ids(cache_root: PathLike) -> List[str]:
    """Run ids with a journal under this cache root, oldest first.

    Run ids embed a UTC timestamp, so lexicographic order is
    chronological.
    """
    directory = journal_dir(cache_root)
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.jsonl"))


def new_run_id() -> str:
    """A fresh run id: UTC timestamp plus pid, like the telemetry runs."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{os.getpid()}"


def load_journal(
    path: PathLike,
) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Read a journal back: ``(header, latest point event per key)``.

    The header line must carry :data:`JOURNAL_SCHEMA`; point lines that
    fail to parse (a torn tail from a crash mid-write) are skipped — the
    cache is the source of truth for values, the journal only for
    progress.
    """
    lines, _torn = read_jsonl(path, schema=JOURNAL_SCHEMA)
    return lines[0], {event.get("key"): event for event in lines[1:]}


class SweepJournal:
    """Append-only progress log for one sweep run.

    Created by the CLI whenever a cache is configured; the executor
    calls :meth:`record` once per completed point (flushed immediately).
    Opening with ``resume=True`` loads the prior entries first and keeps
    appending to the same file.
    """

    def __init__(
        self,
        cache_root: PathLike,
        run_id: Optional[str] = None,
        command: str = "sweep",
        resume: bool = False,
    ) -> None:
        self.run_id = run_id or new_run_id()
        self.command = command
        self.path = journal_path(cache_root, self.run_id)
        #: Latest point event per key, loaded on resume and kept current.
        self.completed: Dict[str, Dict[str, Any]] = {}
        exists = self.path.exists()
        if resume:
            if not exists:
                known = ", ".join(list_run_ids(cache_root)) or "none"
                raise ConfigurationError(
                    f"no journal for run {self.run_id!r} under "
                    f"{journal_dir(cache_root)} (known runs: {known})"
                )
            header, self.completed = load_journal(self.path)
            recorded = header.get("command")
            if recorded and recorded != command:
                raise ConfigurationError(
                    f"run {self.run_id!r} was a {recorded!r} sweep; "
                    f"refusing to resume it as {command!r}"
                )
        elif exists:
            # A fresh run never appends to an old journal: uniquify the
            # id (run ids embed only second-resolution timestamps, so
            # quick back-to-back sweeps would otherwise collide).
            base = self.run_id
            serial = 2
            while self.path.exists():
                self.run_id = f"{base}-{serial}"
                self.path = journal_path(cache_root, self.run_id)
                serial += 1
            exists = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle: Optional[TextIO] = self.path.open(
                "a", encoding="utf-8"
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open journal {self.path}: {exc}"
            ) from exc
        if not exists:
            self._write_line(
                {
                    "schema": JOURNAL_SCHEMA,
                    "run_id": self.run_id,
                    "command": command,
                }
            )

    def record(self, event: Dict[str, Any]) -> None:
        """Append one completed point's event (write-ahead: flushed
        before return)."""
        self.completed[event["key"]] = event
        self._write_line(event)

    def counts(self) -> Dict[str, int]:
        """``{"ok": ..., "failed": ...}`` over the latest event per key."""
        failed = sum(
            1 for event in self.completed.values() if event.get("status") != "ok"
        )
        return {"ok": len(self.completed) - failed, "failed": failed}

    def _write_line(self, document: Dict[str, Any]) -> None:
        if self._handle is None:
            raise ConfigurationError(f"{self.path}: journal is closed")
        self._handle.write(json.dumps(document, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
