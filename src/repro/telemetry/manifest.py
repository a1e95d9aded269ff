"""Per-sweep run manifests and JSONL event logs.

Every sweep invoked with ``--telemetry-dir DIR`` produces one run
directory ``DIR/<run_id>/`` containing

* ``manifest.json`` — the :data:`MANIFEST_SCHEMA` document: run id,
  command, git SHA, context fingerprint, the executor's point tally and
  kernel ledger, status;
* ``events.jsonl`` — one JSON object per line, currently ``point``
  events (index, cache key, status, cached flag, worker pid, wall time,
  op counts, start timestamp, and the point's row): the record
  :meth:`~repro.harness.executor.PointOutcome.to_event` builds once per
  point, which a cached sweep's journal appends too;
* ``spans.jsonl`` — one completed span tree per line (see
  :class:`~repro.telemetry.trace.SpanRecord`).

Both, and the sweep journal, are read by
:func:`repro.telemetry.jsonl.read_jsonl`.

The manifest is written twice: once at creation (``status: "running"``,
so a crashed sweep leaves evidence) and once by :meth:`TelemetryRun.finalize`
(``status: "complete"`` plus the executor's tallies, per-field
statistics over the point rows, and the findings of the
:mod:`~repro.telemetry.alerts` rules).
:func:`validate_run_dir` checks a run directory against this schema —
the CI telemetry job and the test suite both use it — and
:func:`latest_run_dir` resolves the newest run under a
``--telemetry-dir`` (run ids sort chronologically).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from repro.errors import ConfigurationError
from repro.telemetry.alerts import RowStats, evaluate_rules
from repro.telemetry.jsonl import read_jsonl
from repro.telemetry.record import KernelAggregate, PointTelemetry, drain_since
from repro.telemetry.trace import SpanRecord, get_tracer

PathLike = Union[str, Path]

MANIFEST_SCHEMA = "repro-telemetry-v3"

#: Keys every finalized manifest must carry, with their expected types.
_MANIFEST_REQUIRED = {
    "schema": str,
    "run_id": str,
    "created_utc": str,
    "command": str,
    "python": str,
    "status": str,
    "points": dict,
    "kernel": dict,
}
#: The ``points`` counters that sum to the sweep's point total.
_POINT_TOTAL = ("evaluated", "cache_hits")
_KERNEL_COUNTERS = (
    "runs",
    "total_ops",
    "fast_path_ops",
    "slow_path_ops",
    "barrier_ops",
    "sim_wall_s",
)
_POINT_EVENT_REQUIRED = {
    "event": str,
    "index": int,
    "status": str,
    "cached": bool,
    "pid": int,
    "wall_s": (int, float),
    "ops": int,
    "runs": int,
    "attempts": int,
    "row": dict,
}


def git_sha(start: Optional[PathLike] = None) -> Optional[str]:
    """Best-effort commit SHA of the enclosing git checkout.

    Reads ``.git/HEAD`` (and the ref file it names) directly — no
    subprocess — walking up from ``start``; returns ``None`` outside a
    checkout or on any read problem.
    """
    directory = Path(start or os.getcwd()).resolve()
    for candidate in (directory, *directory.parents):
        git = candidate / ".git"
        if not git.is_dir():
            continue
        try:
            head = (git / "HEAD").read_text(encoding="utf-8").strip()
            if head.startswith("ref:"):
                ref = head.partition(":")[2].strip()
                return (git / ref).read_text(encoding="utf-8").strip() or None
            return head or None
        except OSError:
            return None
    return None


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class TelemetryRun:
    """One sweep's telemetry artifact: manifest + JSONL event/span logs.

    Create it before the sweep, hand it to the executor (its
    ``telemetry_run`` attribute), and :meth:`finalize` it afterwards —
    the CLI does all three under ``--telemetry-dir``.
    """

    def __init__(
        self,
        directory: PathLike,
        command: str = "sweep",
        argv: Optional[Sequence[str]] = None,
        context_fingerprint: Optional[str] = None,
        run_id: Optional[str] = None,
    ) -> None:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.run_id = run_id or f"{stamp}-{os.getpid()}"
        self.directory = Path(directory) / self.run_id
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use {self.directory} as a telemetry directory: {exc}"
            ) from exc
        self.command = command
        self.argv = list(argv) if argv is not None else None
        self.context_fingerprint = context_fingerprint
        self.fault_plan: Optional[str] = None
        self.resume: Optional[Dict[str, Any]] = None
        self.finalized = False
        self._started = time.perf_counter()
        self.spans_written = 0
        #: Per-field running statistics over every logged point's row;
        #: what the alert rules are evaluated against at finalize.
        self.row_stats = RowStats()
        self.alerts: List[Dict[str, Any]] = []
        self._events: TextIO = (self.directory / "events.jsonl").open(
            "a", encoding="utf-8"
        )
        self._spans: TextIO = (self.directory / "spans.jsonl").open(
            "a", encoding="utf-8"
        )
        self._write_manifest(status="running")

    # -- recording -----------------------------------------------------------

    def set_context_fingerprint(self, digest: Optional[str]) -> None:
        """Record the experiment context's cache-key digest."""
        self.context_fingerprint = digest

    def set_fault_plan(self, description: Optional[str]) -> None:
        """Record that this run injected faults (and which plan)."""
        self.fault_plan = description

    def set_resume(self, run_id: str, already_complete: int) -> None:
        """Record that this run resumed an earlier journal.

        Emits a ``resume`` event line as well, so the JSONL log shows
        *when* the resume happened relative to the point events.
        """
        self.resume = {"run_id": run_id, "already_complete": already_complete}
        self._event(
            {
                "event": "resume",
                "run_id": run_id,
                "already_complete": already_complete,
            }
        )

    def record_point(
        self, event: Dict[str, Any], telemetry: Optional[PointTelemetry] = None
    ) -> None:
        """Log one sweep point: its ``point`` event (built by
        :meth:`~repro.harness.executor.PointOutcome.to_event`), its row's
        statistics, and the span trees its telemetry carried home."""
        self._event(event)
        self.record_samples(event)
        if telemetry is not None:
            self.record_spans(telemetry.spans, pid=telemetry.pid)

    def record_spans(
        self, spans: Sequence[SpanRecord], pid: Optional[int] = None
    ) -> None:
        """Append completed span trees to ``spans.jsonl``."""
        pid = os.getpid() if pid is None else pid
        for span in spans:
            line = {"event": "span", "pid": pid, "span": span.to_dict()}
            self._spans.write(json.dumps(line, sort_keys=True) + "\n")
            self.spans_written += 1
        if spans:
            self._spans.flush()

    def record_samples(self, event: Dict[str, Any]) -> None:
        """Fold one point event's ``row`` into the per-field statistics.

        These are the manifest's ``rows`` block and what the alert rules
        read at finalize; a failed point's empty row adds nothing.
        """
        self.row_stats.observe(event.get("row", {}))

    def _event(self, event: Dict[str, Any]) -> None:
        self._events.write(json.dumps(event, sort_keys=True) + "\n")
        self._events.flush()

    # -- lifecycle -----------------------------------------------------------

    def finalize(self, executor: Optional[Any] = None) -> Path:
        """Close the run: drain the coordinator's leftovers, write the manifest.

        The leftovers are what no point's capture window took: the
        coordinator's calibration, precompile and ``optimizer.*`` spans,
        drained from mark 0.  The alert rules are then evaluated over
        the whole run's row statistics.  ``executor`` (a ``SweepExecutor``-shaped
        object) contributes, when given, its point tally (the manifest's
        ``points`` block: ``executor.stats`` plus the cache's count of
        quarantined files) and its kernel ledger (the ``kernel`` block,
        the same object ``--profile`` prints).  Idempotent.
        """
        if self.finalized:
            return self.directory / "manifest.json"
        self.record_spans(drain_since().spans)
        self.alerts = [finding.to_dict() for finding in evaluate_rules(self.row_stats)]
        extra: Dict[str, Any] = {}
        if executor is not None:
            cache = executor.cache
            extra["points"] = dict(
                dataclasses.asdict(executor.stats),
                cache_quarantined=cache.quarantined if cache is not None else 0,
            )
            extra["kernel"] = dataclasses.asdict(executor.kernels)
        path = self._write_manifest(status="complete", extra=extra)
        self._events.close()
        self._spans.close()
        self.finalized = True
        return path

    def _write_manifest(
        self, status: str, extra: Optional[Dict[str, Any]] = None
    ) -> Path:
        tracer = get_tracer()
        document: Dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "created_utc": _utc_stamp(),
            "command": self.command,
            "argv": self.argv,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "context_fingerprint": self.context_fingerprint,
            "fault_injection": self.fault_plan,
            "resume": self.resume,
            "status": status,
            "wall_s": round(time.perf_counter() - self._started, 6),
            "coordinator_pid": os.getpid(),
            # The executor's tally, written at finalize.
            "points": {},
            "kernel": dataclasses.asdict(KernelAggregate()),
            "spans": {
                "written": self.spans_written,
                "dropped": tracer.dropped,
            },
            "rows": self.row_stats.to_dict(),
            "alerts": list(self.alerts),
        }
        if extra:
            document.update(extra)
        path = self.directory / "manifest.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(document, indent=1, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, path)
        return path


# ---------------------------------------------------------------------------
# Reading and validating run directories.
# ---------------------------------------------------------------------------


def list_run_dirs(telemetry_dir: PathLike) -> List[Path]:
    """Run directories under a ``--telemetry-dir``, oldest first."""
    root = Path(telemetry_dir)
    if not root.is_dir():
        raise ConfigurationError(f"{root}: not a telemetry directory")
    return sorted(
        p for p in root.iterdir() if p.is_dir() and (p / "manifest.json").exists()
    )


def latest_run_dir(telemetry_dir: PathLike) -> Path:
    """The newest run under a ``--telemetry-dir``."""
    runs = list_run_dirs(telemetry_dir)
    if not runs:
        raise ConfigurationError(
            f"{telemetry_dir}: contains no telemetry runs"
        )
    return runs[-1]


def resolve_run_dir(telemetry_dir: PathLike, run_id: Optional[str] = None) -> Path:
    """The run directory for ``run_id``, or the newest run when omitted."""
    if run_id is None:
        return latest_run_dir(telemetry_dir)
    path = Path(telemetry_dir) / run_id
    if not (path / "manifest.json").exists():
        raise ConfigurationError(f"{path}: no such telemetry run")
    return path


def load_manifest(run_dir: PathLike) -> Dict[str, Any]:
    """Parse (without validating) a run directory's manifest."""
    path = Path(run_dir) / "manifest.json"
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path}: unreadable manifest ({exc})") from exc
    if not isinstance(document, dict):
        raise ConfigurationError(f"{path}: manifest is not an object")
    return document


def load_events(run_dir: PathLike) -> List[Dict[str, Any]]:
    """The run's ``events.jsonl`` entries, in emission order."""
    return read_jsonl(Path(run_dir) / "events.jsonl", strict=True)[0]


def load_spans(run_dir: PathLike) -> List[Dict[str, Any]]:
    """The run's ``spans.jsonl`` entries (``{"pid", "span"}`` objects)."""
    return read_jsonl(Path(run_dir) / "spans.jsonl", strict=True)[0]


def _check_span_tree(node: Any, where: str) -> int:
    if not isinstance(node, dict):
        raise ConfigurationError(f"{where}: span is not an object")
    for key, kinds in (
        ("name", str),
        ("start_us", (int, float)),
        ("duration_us", (int, float)),
    ):
        if not isinstance(node.get(key), kinds):
            raise ConfigurationError(f"{where}: span missing/invalid {key!r}")
    count = 1
    for child in node.get("children", ()):
        count += _check_span_tree(child, where)
    return count


def validate_run_dir(run_dir: PathLike) -> Dict[str, Any]:
    """Validate one run directory against the telemetry schema.

    Checks the manifest's required keys and counter blocks, every event
    line, every span tree, and the cross-file invariant that the
    manifest's point totals match the logged events.  Returns a summary
    ``{"manifest", "points", "spans"}``; raises
    :class:`~repro.errors.ConfigurationError` on the first problem.
    """
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    for key, kinds in _MANIFEST_REQUIRED.items():
        if not isinstance(manifest.get(key), kinds):
            raise ConfigurationError(
                f"{run_dir}/manifest.json: missing or invalid {key!r}"
            )
    if manifest["schema"] != MANIFEST_SCHEMA:
        raise ConfigurationError(
            f"{run_dir}/manifest.json: schema {manifest['schema']!r} != "
            f"supported {MANIFEST_SCHEMA!r}"
        )
    points = manifest["points"]
    # A running manifest has no tally yet; a complete one must total.
    totalled = _POINT_TOTAL if manifest["status"] == "complete" else ()
    for name in {*points, *totalled}:
        if not isinstance(points.get(name), int):
            raise ConfigurationError(
                f"{run_dir}/manifest.json: points.{name} missing or non-integer"
            )
    for name in _KERNEL_COUNTERS:
        if not isinstance(manifest["kernel"].get(name), (int, float)):
            raise ConfigurationError(
                f"{run_dir}/manifest.json: kernel.{name} missing or non-numeric"
            )

    events = load_events(run_dir)
    point_events = 0
    for number, event in enumerate(events, start=1):
        if event.get("event") != "point":
            continue
        point_events += 1
        for key, kinds in _POINT_EVENT_REQUIRED.items():
            if not isinstance(event.get(key), kinds):
                raise ConfigurationError(
                    f"{run_dir}/events.jsonl:{number}: missing/invalid {key!r}"
                )
        if event["status"] not in ("ok", "error"):
            raise ConfigurationError(
                f"{run_dir}/events.jsonl:{number}: bad status {event['status']!r}"
            )
    total = sum(points[name] for name in totalled)
    if totalled and point_events != total:
        raise ConfigurationError(
            f"{run_dir}: manifest counts {total} points "
            f"but events.jsonl logs {point_events}"
        )

    spans = 0
    for number, entry in enumerate(load_spans(run_dir), start=1):
        if entry.get("event") != "span" or not isinstance(entry.get("pid"), int):
            raise ConfigurationError(
                f"{run_dir}/spans.jsonl:{number}: not a span entry"
            )
        spans += _check_span_tree(
            entry.get("span"), f"{run_dir}/spans.jsonl:{number}"
        )

    return {"manifest": manifest, "points": point_events, "spans": spans}

