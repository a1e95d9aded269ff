"""Parallel sweep execution with a memoizing, content-addressed cache.

Every figure in the paper is a sweep — over core count, nominal
efficiency, technology node, or workload — and every point in such a
sweep is independent of the others.  :class:`SweepExecutor` exploits
that: it evaluates points through one attempt loop with two lanes —
*inline* in the calling process, or the *farm* of at most ``jobs``
long-lived worker children (the simulator is pure Python, so
processes, not threads, are what buys wall-clock time) — and memoizes
completed points in a content-addressed on-disk cache so that
re-running a campaign only evaluates points whose configuration
changed; cache replays are the third source of outcomes.

Three guarantees the experiment pipelines rely on:

* **Determinism** — results come back in input order with input indices,
  regardless of process completion order, and a serial run (``jobs=1``)
  executes the exact same evaluation function, so parallel and serial
  campaigns are bitwise identical.
* **Per-point error capture** — a :class:`~repro.errors.ReproError`
  raised by one point (most commonly
  :class:`~repro.errors.InfeasibleOperatingPoint`) does not kill the
  campaign; it is recorded as a typed :class:`SweepFailure` row in that
  point's :class:`PointOutcome`.  Non-library exceptions still
  propagate, with their original type, from either lane — they
  indicate bugs, not infeasible physics.
* **Cache safety** — cache keys are SHA-256 digests of the point's
  canonicalised configuration plus the store's
  :data:`~repro.harness.schema.SCHEMA_VERSION`, so mutating a point's
  config or bumping the schema invalidates exactly the affected entries;
  a corrupted or truncated cache file is quarantined (renamed aside) and
  the point recomputed, never a crash.

The cache persists one JSON document per point, the same
schema-tagged layout as :mod:`repro.harness.store` uses for whole
campaigns; values must be flat (possibly nested) dataclasses of
JSON-representable leaves, which all the harness row types are.

The same attempt loop is the **fault-tolerance layer**: transient
failures — worker crashes, per-point deadline kills, injected faults,
and (when a :class:`RetryPolicy` with retries/deadline or a
:class:`~repro.harness.faults.FaultPlan` is configured) exceptions
escaping the library — are retried with deterministic exponential
backoff and finally *quarantined* as typed ``retryable`` failures, so a
sweep completes with partial results instead of aborting.  The default
policy makes exactly one attempt.  Retryable failures are never
memoized; paired with the
:class:`~repro.harness.journal.SweepJournal` write-ahead log this gives
``--resume``: a re-run replays finished points from the cache bitwise
and re-attempts only the unfinished or crashed ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, ReproError, TransientError
from repro.harness.faults import FaultPlan, inject_fault
from repro.harness.journal import JournalEntry, SweepJournal
from repro.harness.schema import SCHEMA_VERSION
from repro.sim.ops import stream_cache
from repro.telemetry.record import (
    KernelAggregate,
    PointTelemetry,
    begin_point_capture,
    end_point_capture,
)
from repro.telemetry.timeseries import get_sampler
from repro.telemetry.trace import get_tracer, now_us

PathLike = Union[str, Path]

#: Marker key of the executor's JSON value encoding.
_KIND = "__repro__"


# ---------------------------------------------------------------------------
# Value codec: dataclasses / tuples / dicts <-> plain JSON.
# ---------------------------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode a result value into plain JSON-serialisable data.

    Supports JSON scalars, lists, tuples, string-keyed dicts, and
    dataclass instances (recursively).  Dataclasses are tagged with
    their importable dotted path so :func:`decode_value` can rebuild
    them without a central registry.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            _KIND: "dataclass",
            "type": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(cls)
            },
        }
    if isinstance(value, tuple):
        return {_KIND: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        items = []
        for key, entry in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"cannot cache dict with non-string key {key!r}"
                )
            items.append([key, encode_value(entry)])
        return {_KIND: "dict", "items": items}
    raise ConfigurationError(f"cannot cache value of type {type(value).__name__}")


def _resolve_dataclass(dotted: str) -> type:
    """Import the dataclass named by an encoded ``module.QualName`` path."""
    if not isinstance(dotted, str) or not dotted.startswith("repro."):
        raise ConfigurationError(f"refusing to import cached type {dotted!r}")
    module_name, _, qualname = dotted.rpartition(".")
    # Qualnames may nest (``Outer.Inner``); walk from the module down.
    parts = qualname.split(".")
    while True:
        try:
            obj: Any = importlib.import_module(module_name)
            break
        except ModuleNotFoundError:
            module_name, _, head = module_name.rpartition(".")
            if not module_name:
                raise ConfigurationError(f"unknown cached type {dotted!r}")
            parts.insert(0, head)
    for part in parts:
        obj = getattr(obj, part)
    if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        raise ConfigurationError(f"cached type {dotted!r} is not a dataclass")
    return obj


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    if isinstance(encoded, list):
        return [decode_value(v) for v in encoded]
    if isinstance(encoded, dict):
        kind = encoded.get(_KIND)
        if kind == "tuple":
            return tuple(decode_value(v) for v in encoded["items"])
        if kind == "dict":
            return {key: decode_value(v) for key, v in encoded["items"]}
        if kind == "dataclass":
            cls = _resolve_dataclass(encoded["type"])
            fields = encoded["fields"]
            names = {f.name for f in dataclasses.fields(cls)}
            if set(fields) != names:
                raise ConfigurationError(
                    f"cached {encoded['type']} fields {sorted(fields)} do not "
                    "match the current dataclass"
                )
            return cls(**{name: decode_value(v) for name, v in fields.items()})
        raise ConfigurationError(f"malformed cache value: {encoded!r}")
    raise ConfigurationError(f"malformed cache value: {encoded!r}")


def _canonical(value: Any) -> Any:
    """Like :func:`encode_value` but order-normalised for stable hashing."""
    encoded = encode_value(value)

    def normalise(node: Any) -> Any:
        if isinstance(node, dict):
            if node.get(_KIND) == "dict":
                return {
                    _KIND: "dict",
                    "items": sorted(
                        [[k, normalise(v)] for k, v in node["items"]]
                    ),
                }
            return {key: normalise(v) for key, v in node.items()}
        if isinstance(node, list):
            return [normalise(v) for v in node]
        return node

    return normalise(encoded)


def config_key(config: Any, schema_version: Optional[int] = None) -> str:
    """Stable content hash of a point configuration.

    The digest covers the canonicalised config (dataclass type names,
    field names, and values — floats via their shortest ``repr``) plus
    the schema version, so either kind of change yields a new key.
    """
    version = SCHEMA_VERSION if schema_version is None else schema_version
    document = {"schema": version, "config": _canonical(config)}
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Outcomes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepFailure:
    """A typed per-point failure (the campaign itself carries on).

    ``retryable`` marks failures a re-attempt may resolve — worker
    crashes, deadline kills, injected faults, and (under a retry
    policy) escaped non-library exceptions.  Retryable failures are
    never persisted to the result cache, so a resumed run re-attempts
    them instead of replaying the failure.
    """

    error_type: str
    message: str
    retryable: bool = False

    def to_exception(self) -> ReproError:
        """Rebuild the original library exception (best effort)."""
        import repro.errors as errors_module

        cls = getattr(errors_module, self.error_type, None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            return cls(self.message)
        return ReproError(f"{self.error_type}: {self.message}")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor fights for each sweep point.

    The default policy — zero retries, no deadline — reproduces the
    historical all-or-nothing semantics exactly.  With ``max_retries``
    set, a point whose failure is *transient* (worker crash, deadline
    kill, injected fault, or any exception that escapes the library) is
    re-attempted up to ``max_retries`` times with exponential backoff;
    a point still failing after its last attempt is *quarantined*: its
    typed failure is recorded, the sweep completes with partial
    results.  Deterministic library failures (e.g. an infeasible
    operating point) are never retried — the physics will not change.

    ``point_timeout_s`` puts a wall-clock deadline on every attempt;
    enforcing it requires worker processes, so the executor runs the
    farm (even at ``jobs=1``) whenever a deadline is set.
    """

    max_retries: int = 0
    point_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ConfigurationError("point_timeout_s must be positive")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Deterministic delay before re-attempting after 0-based
        ``attempt`` failed (no jitter: reproducibility beats thundering-
        herd smoothing at this fleet size)."""
        return min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor**attempt,
        )


@dataclass(frozen=True)
class PointOutcome:
    """One sweep point's result: its value or its typed failure."""

    index: int
    key: Optional[str]
    value: Any
    failure: Optional[SweepFailure] = None
    cached: bool = False
    #: Evaluation attempts this outcome took (1 = first try; cached
    #: replays report 1).
    attempts: int = 1
    #: What the evaluation reported about itself: evaluating pid, wall
    #: time, per-run kernel stats, span trees.  For cached outcomes this
    #: is the *original* evaluation's telemetry, replayed from the cache.
    telemetry: Optional[PointTelemetry] = None
    #: Which executor lane produced this outcome: ``inline`` (evaluated
    #: in the coordinator), ``farm`` (in a farm worker child), or
    #: ``cache`` (replayed).
    lane: str = "inline"

    @property
    def ok(self) -> bool:
        """Whether the point evaluated successfully."""
        return self.failure is None

    def unwrap(self) -> Any:
        """The value; re-raises the point's library error if it failed."""
        if self.failure is not None:
            raise self.failure.to_exception()
        return self.value


# ---------------------------------------------------------------------------
# The content-addressed cache.
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Counters one :class:`ResultCache` accumulates over its lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0

    def summary(self) -> str:
        """One human-readable line (printed under ``--profile``)."""
        line = (
            f"[cache] {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores"
        )
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        return line


@dataclass(frozen=True)
class _CachedResult:
    value: Any
    failure: Optional[SweepFailure]
    telemetry: Optional[PointTelemetry] = None


class ResultCache:
    """One-JSON-file-per-point persistence keyed by content hash.

    The layout is flat: ``<root>/<sha256>.json``, each file a
    schema-tagged document like the campaign store's.  Files that fail
    to parse or validate are *quarantined* — renamed to
    ``*.quarantined`` so the evidence survives — and treated as misses.
    """

    def __init__(
        self, root: PathLike, schema_version: Optional[int] = None
    ) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use {self.root} as a cache directory: {exc}"
            ) from exc
        self.schema_version = (
            SCHEMA_VERSION if schema_version is None else schema_version
        )
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk location of one cache entry."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[_CachedResult]:
        """Look one key up; ``None`` on miss (including quarantined files)."""
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            self.stats.misses += 1
            return None
        try:
            document = json.loads(text)
            if not isinstance(document, dict):
                raise ConfigurationError(f"{path}: not a cache document")
            if document.get("schema") != self.schema_version:
                raise ConfigurationError(
                    f"{path}: schema {document.get('schema')!r} != "
                    f"supported {self.schema_version}"
                )
            if document.get("key") != key:
                raise ConfigurationError(f"{path}: key mismatch")
            telemetry = None
            if "telemetry" in document:
                telemetry = decode_value(document["telemetry"])
                if telemetry is not None and not isinstance(
                    telemetry, PointTelemetry
                ):
                    raise ConfigurationError(f"{path}: malformed telemetry")
            status = document.get("status")
            if status == "ok":
                result = _CachedResult(
                    value=decode_value(document["value"]),
                    failure=None,
                    telemetry=telemetry,
                )
            elif status == "error":
                error = document["error"]
                result = _CachedResult(
                    value=None,
                    failure=SweepFailure(
                        error_type=str(error["type"]),
                        message=str(error["message"]),
                        retryable=bool(error.get("retryable", False)),
                    ),
                    telemetry=telemetry,
                )
            else:
                raise ConfigurationError(f"{path}: unknown status {status!r}")
        except (ConfigurationError, ValueError, KeyError, TypeError,
                AttributeError):
            self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, outcome: PointOutcome) -> None:
        """Persist one evaluated point (success or typed failure).

        The point's :class:`~repro.telemetry.record.PointTelemetry`
        rides along, so a warm-cache rerun can still account for the
        original evaluation's kernel stats.
        """
        document = {"schema": self.schema_version, "key": key}
        if outcome.failure is None:
            document["status"] = "ok"
            document["value"] = encode_value(outcome.value)
        else:
            document["status"] = "error"
            document["error"] = {
                "type": outcome.failure.error_type,
                "message": outcome.failure.message,
                "retryable": outcome.failure.retryable,
            }
        if outcome.telemetry is not None:
            # Spans are stripped: replaying stale span timestamps into a
            # later run's trace would be misleading; kernel records are
            # what warm-cache profile accounting needs.
            document["telemetry"] = encode_value(
                dataclasses.replace(outcome.telemetry, spans=())
            )
        path = self.path_for(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        self.stats.stores += 1

    def _quarantine(self, path: Path) -> None:
        try:
            path.rename(path.with_name(path.name + ".quarantined"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.stats.quarantined += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# The executor.
# ---------------------------------------------------------------------------


@dataclass
class ExecutorStats:
    """Counters one :class:`SweepExecutor` accumulates across ``map`` calls."""

    evaluated: int = 0
    cache_hits: int = 0
    failures: int = 0
    uncacheable: int = 0
    retries: int = 0
    quarantined: int = 0

    def summary(self) -> str:
        """One human-readable line (printed under ``--profile``)."""
        line = (
            f"[executor] {self.evaluated} evaluated, "
            f"{self.cache_hits} cache hits, {self.failures} failures"
        )
        if self.retries:
            line += f", {self.retries} retries"
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        if self.uncacheable:
            line += f", {self.uncacheable} uncacheable"
        return line


@dataclass(frozen=True)
class _PointCall:
    """Picklable wrapper that turns library errors into typed results.

    Each call is bracketed by a telemetry capture window: the kernel
    stats of every simulation the point runs, plus any span trees the
    evaluating process completed, come back with the status tuple as a
    :class:`~repro.telemetry.record.PointTelemetry` — the outcome
    channel that carries every lane's kernel stats to the coordinator's
    ledger (:attr:`SweepExecutor.kernels`).

    Both lanes run the same call.  A fault plan is injected at the top
    of every attempt, inside the capture window.  A resilient executor
    sets ``capture_bugs=True`` so escaped non-library exceptions come
    back as retryable ``("raised", ...)`` statuses instead of killing
    the campaign; otherwise they propagate (from a farm child, the
    pickled exception and its traceback text are shipped back and
    re-raised).
    """

    fn: Callable[[Any], Any]
    fault_plan: Optional[FaultPlan] = None
    capture_bugs: bool = False

    def __call__(self, point: Any, index: Optional[int] = None, attempt: int = 0):
        begin_point_capture()
        # Counter readings are drained from this mark, not from zero: a
        # forked worker inherits whatever the coordinator had buffered
        # (context calibration runs, say), and those inherited readings
        # must not ride home duplicated with every worker's first point.
        sampler = get_sampler()
        sample_mark = sampler.mark()
        start_us = now_us()
        start = time.perf_counter()
        try:
            if self.fault_plan is not None and index is not None:
                inject_fault(self.fault_plan, index, attempt)
            status = ("ok", self.fn(point))
        except TransientError as exc:
            status = ("transient", type(exc).__name__, str(exc))
        except ReproError as exc:
            status = ("error", type(exc).__name__, str(exc))
        except Exception as exc:
            if not self.capture_bugs:
                end_point_capture()
                sampler.drain_since(sample_mark)
                raise
            status = ("raised", type(exc).__name__, str(exc))
        wall_s = time.perf_counter() - start
        telemetry = PointTelemetry(
            pid=os.getpid(),
            start_us=start_us,
            wall_s=wall_s,
            kernels=end_point_capture(),
            spans=tuple(get_tracer().drain_records()),
            samples=tuple(sampler.drain_since(sample_mark)),
        )
        return status + (telemetry,)


def _seed_stream_cache(entries: List[tuple]) -> None:
    """Seed a spawned farm child's process-wide compile cache.

    On fork platforms farm children inherit the coordinator's warm
    :data:`repro.sim.ops.stream_cache` for free; on spawn platforms the
    coordinator ships its ``(key, program)`` entries here instead, so
    parallel sweeps never recompile per worker either way.
    """
    for key, program in entries:
        # repro: allow[FORK-GLOBAL-WRITE] a spawned child seeds its own cache
        stream_cache.seed(key, program)


class WorkerBug(Exception):
    """A farm worker's bug whose exception cannot make the pickle round
    trip; the message names the original type."""


class _RemoteTraceback(Exception):
    """A farm worker's traceback text, chained as its bug's cause."""


def _bug_status(exc: BaseException) -> Tuple[Any, ...]:
    """What a farm worker ships for an escaped exception: the pickled
    exception (``None`` if it will not pickle), a description and the
    traceback text."""
    try:
        blob: Optional[bytes] = pickle.dumps(exc)
    except Exception:
        blob = None
    return ("bug", blob, f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _raise_bug(status: Tuple[Any, ...]) -> None:
    """Re-raise a shipped bug with its own type (else as
    :class:`WorkerBug`), the worker's traceback chained as the cause."""
    _, blob, description, text = status
    try:
        exc = pickle.loads(blob)
    except Exception:  # no blob, or one that does not unpickle
        exc = WorkerBug(description)
    raise exc from _RemoteTraceback(text)


def _farm_worker(
    conn,
    call: _PointCall,
    point_list: List[Any],
    seeds: Optional[List[tuple]] = None,
) -> None:
    """Child-process entry of the farm: serve attempts until told to stop.

    Receives ``(index, attempt)`` tasks — the points themselves were
    inherited at fork (or shipped once, on spawn platforms) — and sends
    each pickled :class:`_PointCall` status tuple back over the duplex
    pipe.  An exception escaping the call (or the pickling of its
    result) is shipped as a ``("bug", ...)`` status, which the
    coordinator re-raises, and ends the worker.  A worker that dies
    mid-attempt (a ``kill`` fault, the OOM killer) is detected by the
    coordinator as an EOF.  A ``None`` task ends the loop.
    """
    try:
        if seeds:
            _seed_stream_cache(seeds)
        while True:
            task = conn.recv()
            if task is None:
                return
            index, attempt = task
            try:
                blob = pickle.dumps(call(point_list[index], index, attempt))
            except BaseException as exc:
                conn.send_bytes(pickle.dumps(_bug_status(exc)))
                return
            conn.send_bytes(blob)
    except (EOFError, OSError, KeyboardInterrupt):
        # The coordinator went away or is tearing the farm down.
        return
    finally:
        conn.close()


def _kill_process(process) -> None:
    """Terminate a worker hard: SIGTERM, brief grace, then SIGKILL."""
    try:
        process.terminate()
        process.join(0.5)
        if process.is_alive():
            process.kill()
            process.join(0.5)
    except (OSError, ValueError, AttributeError):
        pass


class SweepExecutor:
    """Evaluate independent sweep points, in parallel, through a cache.

    Points the cache cannot satisfy go through one attempt loop in one
    of two lanes: *inline* in the calling process, or the *farm* of at
    most ``jobs`` worker children, each serving one attempt at a time.
    The farm runs when ``jobs > 1`` and more than one point is pending
    (or any point, for a :attr:`resilient` executor), or whenever an
    attempt needs a process (a per-point deadline, a fault plan with
    ``hang``/``kill`` faults).

    Parameters
    ----------
    jobs:
        Concurrent farm children.  ``1`` (the default) evaluates inline
        in the calling process — no fork, no pickling — which is also the
        reference semantics the farm must match bitwise.
    cache:
        Optional :class:`ResultCache`.  Points are only memoized when the
        caller also supplies ``key_configs`` (it alone knows which inputs
        determine a point's value).
    retry:
        Optional :class:`RetryPolicy`; the default makes exactly one
        attempt per point.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        journal: Optional[SweepJournal] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        #: Optional :class:`~repro.harness.journal.SweepJournal`; when
        #: set, every completed point (cached or evaluated) is appended
        #: to it — the write-ahead log behind ``--resume``.
        self.journal = journal
        #: Written only by :meth:`map`'s per-outcome fold.
        self.stats = ExecutorStats()
        #: Failed points accumulated across ``map`` calls, for degraded-
        #: mode reporting (the CLI quarantine summary, ``repro report``).
        self.failed: List[PointOutcome] = []
        #: Optional :class:`~repro.telemetry.manifest.TelemetryRun`; when
        #: set, every outcome is logged to its events/spans JSONL files.
        self.telemetry_run = None
        #: The kernel ledger: every outcome's kernel records (evaluated
        #: in any lane, or replayed from the cache) plus the coordinator's
        #: precompile time, accumulated across ``map`` calls.  ``--profile``
        #: and the telemetry manifest both report it.
        self.kernels = KernelAggregate()

    @property
    def resilient(self) -> bool:
        """Whether an escaped non-library exception is captured.

        A captured bug is retried and finally quarantined like any
        transient failure; otherwise it propagates with its original
        type.  True when any of a retry budget, a per-point deadline,
        or a fault plan is configured.
        """
        return (
            self.fault_plan is not None
            or self.retry.max_retries > 0
            or self.retry.point_timeout_s is not None
        )

    def map(
        self,
        fn: Callable[[Any], Any],
        points: Iterable[Any],
        key_configs: Optional[Iterable[Any]] = None,
        precompile: Optional[Callable[[List[Any]], None]] = None,
    ) -> List[PointOutcome]:
        """Evaluate ``fn`` over ``points``; outcomes in input order.

        ``fn`` must be picklable for the farm (a module-level function
        or a :func:`functools.partial` of one).  ``key_configs`` — one
        hashable config per point — opts the call into the cache.

        ``precompile``, when given, is called in the coordinator with
        exactly the points the cache could not satisfy, *before* any
        worker dispatch.  Sweep pipelines use it to compile op streams
        once into the process-wide :data:`repro.sim.ops.stream_cache`
        so forked farm children inherit them warm (on spawn platforms
        the entries ship with each child instead); a fully warm-cache
        rerun pays zero compiles.  Its wall time goes into
        :attr:`kernels`' ``compile_s``.

        Every outcome is then folded once, in point-index order: into
        :attr:`stats`, the cache, :attr:`kernels` (evaluated points as
        runs, cache replays as cached runs), the journal and the
        telemetry run.
        """
        point_list = list(points)
        keys: List[Optional[str]] = [None] * len(point_list)
        use_cache = self.cache is not None and key_configs is not None
        if key_configs is not None:
            config_list = list(key_configs)
            if len(config_list) != len(point_list):
                raise ConfigurationError(
                    f"{len(config_list)} key configs for "
                    f"{len(point_list)} points"
                )
            if use_cache:
                keys = [
                    config_key(config, self.cache.schema_version)
                    for config in config_list
                ]

        outcomes: List[Optional[PointOutcome]] = [None] * len(point_list)
        pending: List[int] = []
        for index in range(len(point_list)):
            if use_cache:
                entry = self.cache.get(keys[index])
                if entry is not None:
                    outcomes[index] = PointOutcome(
                        index=index,
                        key=keys[index],
                        value=entry.value,
                        failure=entry.failure,
                        cached=True,
                        telemetry=entry.telemetry,
                        lane="cache",
                    )
                    continue
            pending.append(index)

        if pending:
            if precompile is not None:
                start = time.perf_counter()
                precompile([point_list[i] for i in pending])
                self.kernels.compile_s += time.perf_counter() - start
            call = _PointCall(
                fn, fault_plan=self.fault_plan, capture_bugs=self.resilient
            )
            lane = self._lane(len(pending), len(point_list))
            run = self._run_farm if lane == "farm" else self._run_inline
            for index, (result, attempts) in zip(
                pending, run(call, pending, point_list)
            ):
                failure = None
                if result[0] != "ok":
                    failure = SweepFailure(
                        error_type=result[1],
                        message=result[2],
                        retryable=result[0] in ("transient", "raised"),
                    )
                outcomes[index] = PointOutcome(
                    index=index,
                    key=keys[index],
                    value=result[1] if failure is None else None,
                    failure=failure,
                    telemetry=result[-1],
                    attempts=attempts,
                    lane=lane,
                )
        # Folded in point-index order, so the ledger's float totals never
        # depend on which worker finished first.
        stats = self.stats
        for outcome in outcomes:
            failure = outcome.failure
            if failure is not None:
                stats.failures += 1
            if outcome.cached:
                stats.cache_hits += 1
            else:
                stats.evaluated += 1
                stats.retries += outcome.attempts - 1
                if failure is not None:
                    self.failed.append(outcome)
                    if failure.retryable:
                        stats.quarantined += 1
                if use_cache and (failure is None or not failure.retryable):
                    # Retryable failures are deliberately not memoized:
                    # a resumed run should re-attempt them, not replay
                    # the crash.
                    try:
                        self.cache.put(outcome.key, outcome)
                    except ConfigurationError:
                        stats.uncacheable += 1
            if outcome.telemetry is not None:
                for kernel in outcome.telemetry.kernels:
                    self.kernels.add_record(kernel, cached=outcome.cached)
            if self.journal is not None and outcome.key is not None:
                self.journal.record(
                    JournalEntry(
                        key=outcome.key,
                        status="ok" if failure is None else "failed",
                        attempts=outcome.attempts,
                        cached=outcome.cached,
                        error_type=None if failure is None else failure.error_type,
                        retryable=failure is not None and failure.retryable,
                        wall_s=(
                            outcome.telemetry.wall_s
                            if outcome.telemetry is not None
                            else 0.0
                        ),
                    )
                )
            if self.telemetry_run is not None:
                self.telemetry_run.record_point(outcome)
        return outcomes  # type: ignore[return-value]

    # -- the attempt loop ---------------------------------------------------

    def _lane(self, pending: int, points: int) -> str:
        """``"farm"`` when the pending attempts need processes, else
        ``"inline"``.

        A resilient executor with ``jobs > 1`` keeps even a single
        pending point in the farm: that point is often the one whose
        worker crashed last run, and only a child can contain a crash.
        """
        if (
            (self.jobs > 1 and (pending > 1 or self.resilient))
            or self.retry.point_timeout_s is not None
            or (
                self.fault_plan is not None
                and self.fault_plan.needs_processes(points)
            )
        ):
            return "farm"
        return "inline"

    def _final(self, result: Tuple[Any, ...], attempt: int) -> bool:
        """The retry rule both lanes share: an attempt's status stands
        when it is ``ok``/``error`` or the attempt budget is spent."""
        return result[0] in ("ok", "error") or attempt >= self.retry.max_retries

    def _run_inline(
        self, call: _PointCall, pending: List[int], point_list: List[Any]
    ) -> List[Tuple[Tuple[Any, ...], int]]:
        """Serial in-process attempts with deterministic backoff; returns
        ``(status, attempts)`` per point."""
        results: List[Tuple[Tuple[Any, ...], int]] = []
        for index in pending:
            attempt = 0
            result = call(point_list[index], index, attempt)
            while not self._final(result, attempt):
                time.sleep(self.retry.backoff_s(attempt))
                attempt += 1
                result = call(point_list[index], index, attempt)
            results.append((result, attempt + 1))
        return results

    def _run_farm(
        self, call: _PointCall, pending: List[int], point_list: List[Any]
    ) -> List[Tuple[Tuple[Any, ...], int]]:
        """The process farm: at most ``jobs`` long-lived worker children.

        Each worker serves one attempt at a time over a duplex pipe and
        keeps the per-program memos it builds.  A worker killed
        mid-point (OOM, segfault, ``kill`` fault) is detected as an EOF
        and replaced, and the attempt retried; a point exceeding
        ``point_timeout_s`` has its worker terminated (and replaced)
        without poisoning anyone else; and a ``KeyboardInterrupt`` — or
        a bug a worker shipped back, re-raised here — tears every child
        down before propagating.  Results are deterministic regardless
        of completion order — they are slotted by point index.
        """
        policy = self.retry
        slots = min(self.jobs, len(pending))
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            seeds = None  # forked workers inherit the warm stream cache
        else:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
            seeds = stream_cache.export_entries() or None
        results: Dict[int, Tuple[Tuple[Any, ...], int]] = {}
        # Work goes out in runs of consecutive points, about four per
        # worker: neighbouring points usually share a compiled program,
        # so a worker that keeps a run reuses that program's memos.  Each
        # attempt is still its own message with its own deadline.
        size = max(1, len(pending) // (slots * 4))
        ready = deque(
            [(index, 0) for index in pending[start : start + size]]
            for start in range(0, len(pending), size)
        )
        delayed: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
        idle: List[Tuple[Any, Any]] = []  # (process, conn)
        # conn -> (process, index, attempt, deadline, rest of its run)
        busy: Dict[Any, Tuple[Any, int, int, Optional[float], list]] = {}

        def settle(result: Tuple[Any, ...], index: int, attempt: int) -> None:
            if self._final(result, attempt):
                results[index] = (result, attempt + 1)
                return
            delayed.append(
                (time.monotonic() + policy.backoff_s(attempt), index, attempt + 1)
            )

        def retire(process, conn, rest: list) -> None:
            """Stop a worker for good and hand its unstarted run back."""
            _kill_process(process)
            conn.close()
            if rest:
                ready.appendleft(rest)

        def crashed(process, index: int, attempt: int) -> None:
            message = (
                f"worker pid {process.pid} died with exit code "
                f"{process.exitcode} (point {index}, attempt {attempt})"
            )
            settle(("transient", "WorkerCrash", message, None), index, attempt)

        def assign(process, conn, work: list) -> None:
            (index, attempt), rest = work[0], work[1:]
            try:
                conn.send((index, attempt))
            except OSError:
                retire(process, conn, rest)
                crashed(process, index, attempt)
                return
            deadline = None
            if policy.point_timeout_s is not None:
                deadline = time.monotonic() + policy.point_timeout_s
            busy[conn] = (process, index, attempt, deadline, rest)

        try:
            while len(results) < len(pending):
                now = time.monotonic()
                for entry in sorted(e for e in delayed if e[0] <= now):
                    delayed.remove(entry)
                    ready.append([entry[1:]])
                while ready and (idle or len(busy) < slots):
                    if idle:
                        process, conn = idle.pop()
                    else:
                        conn, child_conn = ctx.Pipe()
                        process = ctx.Process(
                            target=_farm_worker,
                            args=(child_conn, call, point_list, seeds),
                            daemon=True,
                        )
                        process.start()
                        child_conn.close()
                    assign(process, conn, ready.popleft())
                if not busy:
                    # Everything outstanding is backing off (or has just
                    # settled); sleep to the earliest retry and loop.
                    if delayed:
                        time.sleep(max(0.0, min(delayed)[0] - time.monotonic()))
                    continue
                wake_times = [
                    deadline
                    for (_, _, _, deadline, _) in busy.values()
                    if deadline is not None
                ] + [entry[0] for entry in delayed]
                wait_s = (
                    None
                    if not wake_times
                    else max(0.0, min(wake_times) - time.monotonic())
                )
                for conn in _connection_wait(list(busy), timeout=wait_s):
                    process, index, attempt, _, rest = busy.pop(conn)
                    try:
                        status = pickle.loads(conn.recv_bytes())
                    except (EOFError, OSError):
                        retire(process, conn, rest)
                        crashed(process, index, attempt)
                        continue
                    idle.append((process, conn))
                    if status[0] == "bug":
                        _raise_bug(status)
                    settle(status, index, attempt)
                    if rest:
                        assign(*idle.pop(), rest)
                now = time.monotonic()
                for conn in [
                    conn
                    for conn, (_, _, _, deadline, _) in busy.items()
                    if deadline is not None and now >= deadline
                ]:
                    process, index, attempt, _, rest = busy.pop(conn)
                    retire(process, conn, rest)
                    message = (
                        f"point {index} exceeded its {policy.point_timeout_s}s "
                        f"deadline on attempt {attempt}"
                    )
                    settle(("transient", "PointTimeout", message, None), index, attempt)
        except BaseException:
            # Ctrl-C, a shipped-back bug or a coordinator bug: no
            # orphaned children, ever.
            for process, conn in [
                (process, conn) for conn, (process, *_) in busy.items()
            ] + idle:
                _kill_process(process)
                conn.close()
            raise
        # ``None`` tells a worker to exit (a closed pipe is no signal: a
        # forked worker holds a copy of the coordinator's end).
        for process, conn in idle:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
            process.join()
        return [results[index] for index in pending]

    def map_values(
        self,
        fn: Callable[[Any], Any],
        points: Iterable[Any],
        key_configs: Optional[Iterable[Any]] = None,
        precompile: Optional[Callable[[List[Any]], None]] = None,
    ) -> List[Any]:
        """Like :meth:`map` but unwraps values, re-raising any failure."""
        return [
            o.unwrap() for o in self.map(fn, points, key_configs, precompile)
        ]
