"""Reading JSONL artifacts: the sweep journal and the telemetry logs.

Kept apart from :mod:`repro.telemetry.manifest` so that a ``--cache``
sweep, which reads its journal, loads neither the manifest writer nor
the alert rules.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]


def read_jsonl(
    path: PathLike, schema: Optional[str] = None, strict: bool = False
) -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL artifact: ``(entries, torn)``.

    A line that is not a JSON object is *torn* (a crash mid-write tears
    at most the tail line): it is counted and skipped, or raised on when
    ``strict``.  With a ``schema`` the first entry must be a header
    carrying it; it stays ``entries[0]``.  A missing file reads as empty.
    """
    path = Path(path)
    entries: List[Dict[str, Any]] = []
    torn = 0
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        text = ""
    except OSError as exc:
        raise ConfigurationError(f"{path}: unreadable ({exc})") from exc
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise ConfigurationError(
                    f"{path}:{number}: not valid JSON ({exc})"
                ) from exc
            entry = None
        if not isinstance(entry, dict):
            if strict:
                raise ConfigurationError(f"{path}:{number}: not an object")
            torn += 1
            continue
        entries.append(entry)
    if schema is not None:
        kind = schema.split("-")[1]  # schemas are named "repro-<kind>-vN"
        found = entries[0].get("schema") if entries else None
        if found is None:
            raise ConfigurationError(f"{path}: missing {kind} header line")
        if found != schema:
            raise ConfigurationError(
                f"{path}: {kind} schema {found!r} != supported {schema!r}"
            )
    return entries, torn
