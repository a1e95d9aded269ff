"""Finding and rule types shared by every checker.

A :class:`Finding` is one structured diagnostic: a rule id, a location
(path relative to the analyzed root, 1-based line), a severity, a
human-readable message, and the offending source line.  Findings are
value objects — hashable, ordered by location — so reports sort
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.errors import ConfigurationError

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Recognised severities, most severe first.  Every severity gates: the
#: split exists so reports can rank output, not to exempt warnings.
SEVERITIES: Tuple[str, ...] = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Rule:
    """One checker rule's identity and documentation."""

    id: str
    family: str
    severity: str
    summary: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"rule {self.id}: unknown severity {self.severity!r}"
            )


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic a checker emitted.

    Field order drives the sort order: reports list findings by file,
    then line, then rule.
    """

    path: str
    line: int
    rule: str
    severity: str
    message: str
    snippet: str = ""

    @property
    def location(self) -> str:
        """``path:line`` for human-readable output."""
        return f"{self.path}:{self.line}"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (one entry of ``repro check --format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
        }
