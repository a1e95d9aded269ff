"""The result-schema version and the model fingerprint.

Both :mod:`repro.harness.store` (campaign files) and
:mod:`repro.harness.executor` (the memoizing point cache) tag their JSON
documents with :data:`SCHEMA_VERSION` and refuse documents they do not
understand.  It lives in its own leaf module so either side can import
it without creating an import cycle.

Bump it whenever a row dataclass changes incompatibly — every cached
point is keyed on it, so a bump invalidates all memoized results at once.

:func:`model_fingerprint` keys the cache on the code that computes a row:
any edit to a model file, even to a comment, gives every point (and the
power calibration) a new key, so a warm cache never replays rows a
different model computed.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

#: Version of the flat row dataclasses' on-disk encoding.
SCHEMA_VERSION = 2

#: Subpackages that never change a computed row: the static analyzer
#: and the observability layer.
_UNHASHED = ("analysis/", "telemetry/")


@functools.lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """sha256 over the source of every model module of the package.

    Covers each ``*.py`` under :mod:`repro` except :data:`_UNHASHED`,
    in sorted relative-path order, each framed by its path and length.
    Computed once per process.
    """
    root = Path(__file__).resolve().parent.parent
    sources = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for rel, path in sources:
        if rel.startswith(_UNHASHED):
            continue
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()
