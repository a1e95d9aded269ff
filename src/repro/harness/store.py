"""Persistence for experiment results (JSON on disk).

Experimental pipelines take minutes at full scale; a release-grade
harness lets users save a campaign's rows and reload them later for
reporting or comparison without re-simulating.  The store serialises the
flat row dataclasses (:class:`Scenario1Row`, :class:`Scenario2Row`,
:class:`PerCoreDVFSResult`, :class:`OptimizerRow`) with a type tag, a
schema version, and a provenance block (the commit SHA of the producing
checkout — deterministic, so identical campaigns stay byte-identical),
and refuses files it does not understand.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.core.sweeps import Figure1Row, Figure2Row
from repro.errors import ConfigurationError
from repro.harness.optimizer import OptimizerRow
from repro.harness.percore import PerCoreDVFSResult
from repro.harness.profiling import SimPointRow
from repro.harness.scenario1 import Scenario1Row
from repro.harness.scenario2 import Scenario2Row

# Bump (in repro.harness.schema) when the row schemas change
# incompatibly; re-exported here for backward compatibility.
from repro.harness.schema import SCHEMA_VERSION
from repro.telemetry.manifest import git_sha

#: The oldest results schema the store still reads.  The encoding (a
#: type tag and a field dict per row) has not changed since; a row
#: whose dataclass gained or lost a field is refused entry by entry, so
#: an older file of rows that did not change (Figure 1/2, say) loads.
OLDEST_READABLE_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class FailedPointRow:
    """A quarantined or failed sweep point, as a storable result row.

    Degraded campaigns persist these next to their ordinary rows so a
    partial store is explicit about what is missing and why, instead of
    silently narrower.
    """

    key: str
    index: int
    error_type: str
    message: str
    attempts: int
    #: Whether a retry (e.g. on resume) may succeed — true for crashes,
    #: timeouts, and injected faults; false for deterministic physics.
    retryable: bool


_ROW_TYPES = {
    "scenario1": Scenario1Row,
    "scenario2": Scenario2Row,
    "percore": PerCoreDVFSResult,
    "simpoint": SimPointRow,
    "figure1": Figure1Row,
    "figure2": Figure2Row,
    "optimizer": OptimizerRow,
    # Degraded campaigns persist their quarantined/failed points so a
    # partial store is explicit about what is missing and why.
    "failedpoint": FailedPointRow,
}
_TYPE_NAMES = {cls: name for name, cls in _ROW_TYPES.items()}

PathLike = Union[str, Path]
Row = Union[
    Scenario1Row,
    Scenario2Row,
    PerCoreDVFSResult,
    SimPointRow,
    Figure1Row,
    Figure2Row,
    OptimizerRow,
    FailedPointRow,
]


def failed_point_rows(outcomes) -> List[FailedPointRow]:
    """Convert failed ``PointOutcome``s into storable rows.

    Accepts any iterable of outcome-shaped objects (the executor's
    ``failed`` accumulator, or a full ``map`` result — successes are
    skipped), so degraded campaigns can persist exactly which points
    are missing and why, next to their ordinary rows.
    """
    rows = []
    for outcome in outcomes:
        failure = getattr(outcome, "failure", None)
        if failure is None:
            continue
        rows.append(
            FailedPointRow(
                key=outcome.key or "",
                index=outcome.index,
                error_type=failure.error_type,
                message=failure.message,
                attempts=getattr(outcome, "attempts", 1),
                retryable=getattr(failure, "retryable", False),
            )
        )
    return rows


def _encode_row(row: Row) -> Dict:
    cls = type(row)
    name = _TYPE_NAMES.get(cls)
    if name is None:
        raise ConfigurationError(f"cannot store rows of type {cls.__name__}")
    payload = dataclasses.asdict(row)
    # Tuples become lists in JSON; decode restores them via the dataclass.
    return {"type": name, "data": payload}


def _decode_row(obj: Dict) -> Row:
    try:
        cls = _ROW_TYPES[obj["type"]]
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed result entry: {obj!r}") from exc
    field_names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - field_names
    if unknown:
        raise ConfigurationError(
            f"{obj['type']} entry has unknown fields {sorted(unknown)}"
        )
    missing = {
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    }
    if missing:
        raise ConfigurationError(
            f"{obj['type']} entry lacks fields {sorted(missing)}"
        )
    # Restore tuple-typed fields (JSON round-trips them as lists).
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in data.items()
    }
    return cls(**coerced)


def save_results(results: Dict[str, Sequence[Row]], path: PathLike) -> None:
    """Write a campaign — named groups of rows — to ``path`` as JSON.

    Groups are written sorted by name so the document (and therefore
    its diff, digest, and load order) is deterministic regardless of
    the insertion order of ``results``; rows keep their order within a
    group.
    """
    document = {
        "schema": SCHEMA_VERSION,
        "provenance": {"git_sha": git_sha()},
        "groups": {
            name: [_encode_row(row) for row in results[name]]
            for name in sorted(results)
        },
    }
    Path(path).write_text(json.dumps(document, indent=1), encoding="utf-8")


def load_results(path: PathLike) -> Dict[str, List[Row]]:
    """Load a campaign previously written by :func:`save_results`.

    Groups come back sorted by name (deterministic load order even for
    hand-edited files); a schema version this library does not support
    is rejected with a :class:`ConfigurationError` naming the file.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict) or "schema" not in document:
        raise ConfigurationError(f"{path}: not a repro results file")
    if document["schema"] not in range(OLDEST_READABLE_SCHEMA, SCHEMA_VERSION + 1):
        raise ConfigurationError(
            f"{path}: unknown results schema {document['schema']!r}; this "
            f"version of repro supports schemas {OLDEST_READABLE_SCHEMA} to "
            f"{SCHEMA_VERSION} — regenerate the campaign or upgrade the library"
        )
    groups = document.get("groups", {})
    if not isinstance(groups, dict):
        raise ConfigurationError(f"{path}: malformed groups section")
    return {
        name: [_decode_row(entry) for entry in groups[name]]
        for name in sorted(groups)
    }
