"""Crash-safe sweep journals: a cached sweep's write-ahead progress log.

The :class:`~repro.harness.executor.ResultCache` holds the *values* of
completed sweep points; what it cannot tell you is which run computed
them, which points failed (and how hard), or how far an interrupted
campaign got.  The journal records exactly that: one JSONL file per run
id, written alongside the cache under ``<cache>/journal/``, with a
header line followed by one line per completed point — appended and
flushed as each point finishes, so a crash or Ctrl-C loses at most the
point in flight.  Each line is the point's one record
(:meth:`~repro.harness.executor.PointOutcome.to_event`), the same
``point`` event a telemetry run appends to ``events.jsonl``, so the two
files agree line for line after the header.

The journal decides nothing: picking an interrupted campaign back up is
rerunning it with the same ``--cache``.  The cache replays every point
that completed (ok, or failed deterministically) bitwise; retryable
failures (a crash, a timeout, an injected fault) were never cached, so
the rerun re-attempts them, and it opens a journal of its own.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

JOURNAL_SCHEMA = "repro-journal-v2"

#: Subdirectory of a cache root that holds the per-run journals.
JOURNAL_DIRNAME = "journal"


def journal_path(cache_root: PathLike, run_id: str) -> Path:
    """The journal file for one run id under a cache root."""
    if not run_id or "/" in run_id or run_id.startswith("."):
        raise ConfigurationError(f"invalid run id {run_id!r}")
    return Path(cache_root) / JOURNAL_DIRNAME / f"{run_id}.jsonl"


def new_run_id() -> str:
    """A fresh run id: UTC timestamp plus pid, like the telemetry runs."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{os.getpid()}"


class SweepJournal:
    """Append-only progress log for one sweep run.

    Created by the CLI whenever a cache is configured; the executor
    calls :meth:`record` once per completed point (flushed immediately).
    """

    def __init__(
        self,
        cache_root: PathLike,
        run_id: Optional[str] = None,
        command: str = "sweep",
    ) -> None:
        self.run_id = run_id or new_run_id()
        self.command = command
        self.path = journal_path(cache_root, self.run_id)
        # A run never appends to an old journal: uniquify the id (run
        # ids embed only second-resolution timestamps, so quick
        # back-to-back sweeps would otherwise collide).
        base = self.run_id
        serial = 2
        while self.path.exists():
            self.run_id = f"{base}-{serial}"
            self.path = journal_path(cache_root, self.run_id)
            serial += 1
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle: Optional[TextIO] = self.path.open(
                "a", encoding="utf-8"
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open journal {self.path}: {exc}"
            ) from exc
        self._write_line(
            {"schema": JOURNAL_SCHEMA, "run_id": self.run_id, "command": command}
        )

    def record(self, event: Dict[str, Any]) -> None:
        """Append one completed point's event (write-ahead: flushed
        before return)."""
        self._write_line(event)

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
