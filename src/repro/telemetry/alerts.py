"""Declarative alert rules over the sweep's point rows.

Every ``point`` event carries its row's scalar fields (``row``; see
:meth:`~repro.harness.executor.PointOutcome.to_event`).  The
:class:`~repro.telemetry.manifest.TelemetryRun` folds the numeric ones
into :class:`RowStats` as it logs each event, and evaluates the rules
once at finalize; ``repro trace timeline`` folds a persisted
``events.jsonl`` the same way.  Rules read *aggregated* statistics, so
a run never holds a whole sweep's rows in memory.

Two rule kinds cover the limits the paper's studies are judged by:

``above``
    The field's maximum over every point reached ``threshold`` — the
    thermal-ceiling and power-budget rules.
``collapse``
    Within one application at one frequency, the field's maximum rose
    above ``threshold`` × its minimum.  On CPI this is throughput
    collapsing past the optimal thread count, whatever the workload's
    absolute IPC.  Grouping by application keeps a slow workload from
    reading as a collapse of a fast one, and grouping by frequency keeps
    a V/f search's probes apart: a memory-bound point's CPI falls with
    the clock, since DRAM latency is fixed in nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class AlertRule:
    """One declarative condition over a row field."""

    name: str
    kind: str  # "above" | "collapse"
    field: str
    threshold: float
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ValueError(
                f"unknown alert rule kind {self.kind!r}; expected one of {sorted(_RULE_KINDS)}"
            )


@dataclass(frozen=True)
class AlertFinding:
    """One fired rule, with the observed value that tripped it."""

    rule: str
    kind: str
    field: str
    value: float
    threshold: float
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "field": self.field,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


@dataclass
class ChannelStats:
    """Running statistics for one channel (a numeric row field); O(1) per value."""

    count: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    total: float = 0.0
    last: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.total += value
        self.last = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean(),
            "last": self.last,
        }


def numeric_fields(row: Mapping[str, Any]) -> List[Tuple[str, float]]:
    """A row's numeric fields as floats, in row order (bools are skipped)."""
    return [
        (name, float(value))
        for name, value in row.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]


class RowStats:
    """Per-field statistics over point rows, overall and per group.

    A group is one application at one frequency: ``(row["app"],
    row.get("frequency_hz"))``.
    """

    def __init__(self) -> None:
        #: Rows folded that had at least one numeric field.
        self.points = 0
        self.fields: Dict[str, ChannelStats] = {}
        #: ``(app, frequency_hz)`` -> field -> stats (the ``collapse``
        #: kind's groups).
        self.groups: Dict[Tuple[str, Any], Dict[str, ChannelStats]] = {}

    def observe(self, row: Mapping[str, Any]) -> None:
        """Fold one row's :func:`numeric_fields`."""
        numeric = numeric_fields(row)
        if not numeric:
            return
        self.points += 1
        group = self.groups.setdefault(
            (str(row.get("app", "")), row.get("frequency_hz")), {}
        )
        for name, value in numeric:
            for table in (self.fields, group):
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = ChannelStats()
                entry.observe(value)

    def to_dict(self) -> Dict[str, Any]:
        """The manifest's ``rows`` block."""
        return {
            "points": self.points,
            "fields": {
                name: stats.to_dict() for name, stats in sorted(self.fields.items())
            },
        }


_RULE_KINDS = frozenset({"above", "collapse"})

#: Built-in rules evaluated on every telemetry run.  Thresholds are
#: indicative defaults for the paper's calibration: the thermal model
#: is calibrated against a 100 °C junction ceiling, so 95 °C flags
#: proximity; 60 W is the budget scale of the studied CMP envelope; a
#: CPI above twice its own minimum (IPC under half its peak) marks the
#: post-optimal-N collapse regardless of absolute throughput.
DEFAULT_RULES: Tuple[AlertRule, ...] = (
    AlertRule(
        name="thermal-ceiling",
        kind="above",
        field="peak_temperature_c",
        threshold=95.0,
        message="peak temperature within 5 degC of the 100 degC calibration ceiling",
    ),
    AlertRule(
        name="power-budget",
        kind="above",
        field="total_power_w",
        threshold=60.0,
        message="chip power exceeded the 60 W sweep budget",
    ),
    AlertRule(
        name="ipc-collapse",
        kind="collapse",
        field="average_cpi",
        threshold=2.0,
        message="an application's IPC fell below half its peak (past the optimal thread count)",
    ),
)


def evaluate_rules(
    stats: RowStats, rules: Sequence[AlertRule] = DEFAULT_RULES
) -> List[AlertFinding]:
    """Evaluate rules against row statistics; one finding per fired rule.

    A ``collapse`` finding's value is the largest max/min ratio over the
    groups.  Rules whose field no row carried do not fire.
    """
    findings: List[AlertFinding] = []
    for rule in rules:
        if rule.kind == "above":
            entry = stats.fields.get(rule.field)
            value = entry.maximum if entry is not None else float("-inf")
            fired = value >= rule.threshold
        else:
            ratios = [
                entry.maximum / entry.minimum
                for entry in (
                    group.get(rule.field) for group in stats.groups.values()
                )
                if entry is not None and entry.count >= 2 and entry.minimum > 0
            ]
            value = max(ratios, default=0.0)
            fired = value > rule.threshold
        if fired:
            findings.append(
                AlertFinding(
                    rule=rule.name,
                    kind=rule.kind,
                    field=rule.field,
                    value=value,
                    threshold=rule.threshold,
                    message=rule.message,
                )
            )
    return findings
