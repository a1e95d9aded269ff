"""Persistence for experiment results (JSON on disk).

Experimental pipelines take minutes at full scale; a release-grade
harness lets users save a campaign's rows and reload them later for
reporting or comparison without re-simulating.  The store serialises the
flat row dataclasses (:class:`Scenario1Row`, :class:`Scenario2Row`,
:class:`SimPointRow`, :class:`OptimizerRow`) with a type tag, a
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


_ROW_TYPES = {
    "scenario1": Scenario1Row,
    "scenario2": Scenario2Row,
    "simpoint": SimPointRow,
    "figure1": Figure1Row,
    "figure2": Figure2Row,
    "optimizer": OptimizerRow,
}
_TYPE_NAMES = {cls: name for name, cls in _ROW_TYPES.items()}

PathLike = Union[str, Path]
Row = Union[
    Scenario1Row,
    Scenario2Row,
    SimPointRow,
    Figure1Row,
    Figure2Row,
    OptimizerRow,
]


def _encode_row(row: Row) -> Dict:
    cls = type(row)
    name = _TYPE_NAMES.get(cls)
    if name is None:
        raise ConfigurationError(f"cannot store rows of type {cls.__name__}")
    return {"type": name, "data": dataclasses.asdict(row)}


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
    return cls(**data)


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
