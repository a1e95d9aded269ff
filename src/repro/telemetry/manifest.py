"""Per-sweep run manifests and JSONL event logs.

Every sweep invoked with ``--telemetry-dir DIR`` produces one run
directory ``DIR/<run_id>/`` containing

* ``manifest.json`` — the :data:`MANIFEST_SCHEMA` document: run id,
  command, git SHA, context fingerprint, point totals, the executor's
  kernel ledger, status;
* ``events.jsonl`` — one JSON object per line, currently ``point``
  events (index, cache key, status, cached flag, worker pid, wall time,
  op counts, start timestamp);
* ``spans.jsonl`` — one completed span tree per line (see
  :class:`~repro.telemetry.trace.SpanRecord`);
* ``timeline.jsonl`` — one sampled counter reading per line (see
  :class:`~repro.telemetry.timeseries.SampleRecord`), attributed to the
  sweep point that deposited it.  Created lazily on the first reading,
  so sampling-off runs stay two-file; headed by a schema line and read
  with the journal's torn-tail tolerance (a reading lost to a crash
  mid-write costs that line, not the artifact).

The manifest is written twice: once at creation (``status: "running"``,
so a crashed sweep leaves evidence) and once by :meth:`TelemetryRun.finalize`
(``status: "complete"`` plus totals, per-channel statistics, and the
findings of the :mod:`~repro.telemetry.alerts` rules).
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
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.errors import ConfigurationError
from repro.telemetry.alerts import AlertRule, ChannelStats, evaluate_rules
from repro.telemetry.record import KernelAggregate, PointTelemetry
from repro.telemetry.timeseries import SampleRecord, get_sampler
from repro.telemetry.trace import SpanRecord, get_tracer

PathLike = Union[str, Path]

MANIFEST_SCHEMA = "repro-telemetry-v1"
TIMELINE_SCHEMA = "repro-timeline-v1"

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
_POINT_COUNTERS = (
    "total",
    "ok",
    "failed",
    "cached",
    "evaluated",
    "retried",
    "quarantined",
)
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
        self.points = {name: 0 for name in _POINT_COUNTERS}
        self.spans_written = 0
        self.samples_written = 0
        #: Per-channel running statistics over every recorded sample;
        #: what the alert rules are evaluated against at finalize.
        self.channel_stats: Dict[str, ChannelStats] = {}
        #: ``None`` means the built-in :data:`~repro.telemetry.alerts.DEFAULT_RULES`.
        self.alert_rules: Optional[Sequence[AlertRule]] = None
        self.alerts: List[Dict[str, Any]] = []
        self._events: TextIO = (self.directory / "events.jsonl").open(
            "a", encoding="utf-8"
        )
        self._spans: TextIO = (self.directory / "spans.jsonl").open(
            "a", encoding="utf-8"
        )
        #: Opened lazily by :meth:`record_samples` so sampling-off runs
        #: do not grow an empty third artifact.
        self._timeline: Optional[TextIO] = None
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

    def record_point(self, outcome: Any) -> None:
        """Log one sweep point's outcome (a ``PointOutcome``-shaped object)."""
        telemetry: Optional[PointTelemetry] = getattr(outcome, "telemetry", None)
        attempts = int(getattr(outcome, "attempts", 1))
        event: Dict[str, Any] = {
            "event": "point",
            "index": outcome.index,
            "key": outcome.key,
            "status": "ok" if outcome.failure is None else "error",
            "cached": bool(outcome.cached),
            "lane": str(getattr(outcome, "lane", "inline")),
            "attempts": attempts,
            "pid": telemetry.pid if telemetry else 0,
            "start_us": telemetry.start_us if telemetry else 0.0,
            "wall_s": telemetry.wall_s if telemetry else 0.0,
            "ops": telemetry.total_ops if telemetry else 0,
            "fast_path_ops": telemetry.fast_path_ops if telemetry else 0,
            "runs": len(telemetry.kernels) if telemetry else 0,
        }
        quarantined = False
        if outcome.failure is not None:
            event["error_type"] = outcome.failure.error_type
            quarantined = bool(getattr(outcome.failure, "retryable", False))
            event["retryable"] = quarantined
        self._event(event)
        self.points["total"] += 1
        self.points["ok" if outcome.failure is None else "failed"] += 1
        self.points["cached" if outcome.cached else "evaluated"] += 1
        if attempts > 1:
            self.points["retried"] += 1
        if quarantined:
            self.points["quarantined"] += 1
        if telemetry is not None:
            self.record_spans(telemetry.spans, pid=telemetry.pid)
            self.record_samples(
                telemetry.samples,
                point=outcome.index,
                pid=telemetry.pid,
                cached=bool(outcome.cached),
            )

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

    def record_samples(
        self,
        samples: Sequence[SampleRecord],
        point: Optional[int] = None,
        pid: Optional[int] = None,
        cached: bool = False,
    ) -> None:
        """Append counter readings to ``timeline.jsonl``.

        ``point`` is the sweep-point index the readings belong to
        (``None`` for readings taken outside any point — context
        calibration, directly-run governor loops).  Every reading also
        feeds the run's per-channel statistics, which is what the alert
        rules see at finalize.
        """
        if not samples:
            return
        pid = os.getpid() if pid is None else pid
        if self._timeline is None:
            self._timeline = (self.directory / "timeline.jsonl").open(
                "a", encoding="utf-8"
            )
            header = {"schema": TIMELINE_SCHEMA, "run_id": self.run_id}
            self._timeline.write(json.dumps(header, sort_keys=True) + "\n")
        for record in samples:
            line = {"event": "sample", "point": point, "pid": pid,
                    "cached": cached}
            line.update(record.to_dict())
            self._timeline.write(json.dumps(line, sort_keys=True) + "\n")
            self.samples_written += 1
            stats = self.channel_stats.get(record.channel)
            if stats is None:
                stats = self.channel_stats[record.channel] = ChannelStats()
            stats.observe(record.value)
        self._timeline.flush()

    def _event(self, event: Dict[str, Any]) -> None:
        self._events.write(json.dumps(event, sort_keys=True) + "\n")
        self._events.flush()

    # -- lifecycle -----------------------------------------------------------

    def finalize(
        self,
        executor: Optional[Any] = None,
        drain_tracer: bool = True,
    ) -> Path:
        """Close the run: drain the process tracer, write final manifest.

        Also drains the coordinator's counter sampler (readings taken
        outside any point-capture window, e.g. during context
        calibration) and evaluates the alert rules over the whole run's
        channel statistics.  ``executor`` (a ``SweepExecutor``-shaped
        object) contributes its executor/cache counters and its kernel
        ledger (the manifest's ``kernel`` block, the same object
        ``--profile`` prints) when given.  Idempotent.
        """
        if self.finalized:
            return self.directory / "manifest.json"
        if drain_tracer:
            tracer = get_tracer()
            self.record_spans(tracer.drain_records())
        sampler = get_sampler()
        self.record_samples(sampler.drain_records())
        self.alerts = [
            finding.to_dict()
            for finding in evaluate_rules(
                self.channel_stats, self.alert_rules, dropped=sampler.dropped
            )
        ]
        extra: Dict[str, Any] = {}
        if executor is not None:
            extra["kernel"] = dataclasses.asdict(executor.kernels)
            stats = executor.stats
            extra["executor"] = {
                "evaluated": stats.evaluated,
                "cache_hits": stats.cache_hits,
                "failures": stats.failures,
                "uncacheable": stats.uncacheable,
                "retries": getattr(stats, "retries", 0),
                "quarantined": getattr(stats, "quarantined", 0),
            }
            cache = getattr(executor, "cache", None)
            if cache is not None:
                extra["cache"] = {
                    "hits": cache.stats.hits,
                    "misses": cache.stats.misses,
                    "stores": cache.stats.stores,
                    "quarantined": cache.stats.quarantined,
                }
        path = self._write_manifest(status="complete", extra=extra)
        self._events.close()
        self._spans.close()
        if self._timeline is not None:
            self._timeline.close()
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
            "points": dict(self.points),
            "kernel": dataclasses.asdict(KernelAggregate()),
            "spans": {
                "written": self.spans_written,
                "dropped": tracer.dropped,
            },
            "timeline": {
                "written": self.samples_written,
                "dropped": get_sampler().dropped,
                "channels": {
                    name: stats.to_dict()
                    for name, stats in sorted(self.channel_stats.items())
                },
            },
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


def _load_jsonl(path: Path) -> List[Dict[str, Any]]:
    if not path.exists():
        return []
    entries = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{number}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(entry, dict):
                raise ConfigurationError(f"{path}:{number}: not an object")
            entries.append(entry)
    return entries


def load_events(run_dir: PathLike) -> List[Dict[str, Any]]:
    """The run's ``events.jsonl`` entries, in emission order."""
    return _load_jsonl(Path(run_dir) / "events.jsonl")


def load_spans(run_dir: PathLike) -> List[Dict[str, Any]]:
    """The run's ``spans.jsonl`` entries (``{"pid", "span"}`` objects)."""
    return _load_jsonl(Path(run_dir) / "spans.jsonl")


def load_timeline(run_dir: PathLike) -> Tuple[List[Dict[str, Any]], int]:
    """The run's ``timeline.jsonl`` sample entries, torn-tail tolerant.

    Returns ``(entries, skipped)``: parsed sample lines in emission
    order, and the count of lines that failed to parse (a crash
    mid-write tears at most the tail line — same convention as the
    sweep journal, and unlike :func:`load_events` the timeline loader
    never refuses the whole artifact over one lost reading).  A missing
    file is an empty timeline; a present file must lead with the
    :data:`TIMELINE_SCHEMA` header line.
    """
    path = Path(run_dir) / "timeline.jsonl"
    if not path.exists():
        return [], 0
    entries: List[Dict[str, Any]] = []
    skipped = 0
    header_seen = False
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(entry, dict):
                skipped += 1
                continue
            if not header_seen:
                header_seen = True
                if entry.get("schema") != TIMELINE_SCHEMA:
                    raise ConfigurationError(
                        f"{path}: timeline schema {entry.get('schema')!r} != "
                        f"supported {TIMELINE_SCHEMA!r}"
                    )
                continue
            entries.append(entry)
    if not header_seen:
        raise ConfigurationError(f"{path}: missing timeline header line")
    return entries, skipped


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
    for name in _POINT_COUNTERS:
        if not isinstance(manifest["points"].get(name), int):
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
    if manifest["status"] == "complete" and point_events != manifest["points"]["total"]:
        raise ConfigurationError(
            f"{run_dir}: manifest counts {manifest['points']['total']} points "
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

    samples, torn = _validate_timeline(run_dir, manifest)

    return {
        "manifest": manifest,
        "points": point_events,
        "spans": spans,
        "samples": samples,
        "torn_samples": torn,
    }


_SAMPLE_ENTRY_REQUIRED = {
    "event": str,
    "channel": str,
    "t_us": (int, float),
    "value": (int, float),
    "pid": int,
    "cached": bool,
}


def _validate_timeline(run_dir: Path, manifest: Dict[str, Any]) -> Tuple[int, int]:
    """Check ``timeline.jsonl`` against the manifest's declaration.

    A manifest that counts written samples while the file is missing is
    an error (the artifact was lost); a file torn mid-line is not — the
    parseable entries just have to be well-formed samples, mirroring
    the journal's crash-tolerance convention.
    """
    declared = manifest.get("timeline")
    path = run_dir / "timeline.jsonl"
    if declared is not None:
        if not isinstance(declared, dict) or not isinstance(
            declared.get("written"), int
        ):
            raise ConfigurationError(
                f"{run_dir}/manifest.json: malformed timeline declaration"
            )
        if declared["written"] > 0 and not path.exists():
            raise ConfigurationError(
                f"{run_dir}: manifest declares {declared['written']} timeline "
                "samples but timeline.jsonl is missing"
            )
    entries, torn = load_timeline(run_dir)
    for number, entry in enumerate(entries, start=1):
        for key, kinds in _SAMPLE_ENTRY_REQUIRED.items():
            if not isinstance(entry.get(key), kinds):
                raise ConfigurationError(
                    f"{run_dir}/timeline.jsonl: sample {number}: "
                    f"missing/invalid {key!r}"
                )
        if entry["event"] != "sample":
            raise ConfigurationError(
                f"{run_dir}/timeline.jsonl: sample {number}: "
                f"bad event {entry['event']!r}"
            )
        if entry.get("point") is not None and not isinstance(entry["point"], int):
            raise ConfigurationError(
                f"{run_dir}/timeline.jsonl: sample {number}: bad point index"
            )
    if (
        declared is not None
        and manifest.get("status") == "complete"
        and torn == 0
        and declared["written"] != len(entries)
    ):
        raise ConfigurationError(
            f"{run_dir}: manifest counts {declared['written']} timeline "
            f"samples but timeline.jsonl logs {len(entries)}"
        )
    return len(entries), torn
