"""Analysis driver: run every checker, apply suppressions, report.

:func:`analyze_tree` is the single entry point the CLI, tests, and
benchmarks share.  It parses the tree once
(:func:`repro.analysis.index.build_index`), runs the three checker
families, drops findings covered by inline ``# repro: allow[...]``
suppressions, and returns a sorted :class:`AnalysisReport`.

The report has a stable JSON document form (``repro check --format
json``) validated by :func:`validate_report_document` — the same
required-keys-with-types idiom the telemetry manifest uses — so
downstream tooling can consume it without guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.analysis import determinism, dimensions, taint
from repro.analysis.findings import Finding, Rule
from repro.analysis.flow import build_call_graph
from repro.analysis.index import TreeIndex, build_index
from repro.analysis.source import SourceError, SourceFile
from repro.errors import ConfigurationError

REPORT_SCHEMA = "repro-analysis-report-v1"

#: Every rule the analyzer knows, in report order.
RULES: Tuple[Rule, ...] = (
    Rule(
        id="DET-WALLCLOCK",
        family="determinism",
        severity="error",
        summary="wall-clock read inside simulation/model code",
    ),
    Rule(
        id="DET-RANDOM",
        family="determinism",
        severity="error",
        summary="unseeded random number source",
    ),
    Rule(
        id="DET-SET-ORDER",
        family="determinism",
        severity="warning",
        summary="iteration over an unordered set/dict view",
    ),
    Rule(
        id="DET-FLOAT-SUM",
        family="determinism",
        severity="warning",
        summary="float sum over an order-unstable iterable",
    ),
    Rule(
        id="DIM-MISMATCH",
        family="dimensions",
        severity="error",
        summary="arithmetic combines incompatible physical quantities",
    ),
    Rule(
        id="DIM-RETURN",
        family="dimensions",
        severity="error",
        summary="return value contradicts the function's unit suffix",
    ),
    Rule(
        id="DIM-EXP",
        family="dimensions",
        severity="warning",
        summary="united quantity raised to a non-integer power",
    ),
    Rule(
        id="DIM-ARG",
        family="dimensions",
        severity="error",
        summary="argument's unit contradicts its parameter's suffix",
    ),
    Rule(
        id="DIM-MAGIC",
        family="dimensions",
        severity="warning",
        summary="bare scale literal applied to a united value",
    ),
    Rule(
        id="ALLOW-UNUSED",
        family="suppressions",
        severity="warning",
        summary="inline suppression comment matches no finding",
    ),
)

RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in RULES)

_RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}


def rule_by_id(rule_id: str) -> Rule:
    """The :class:`Rule` for ``rule_id``; raises on unknown ids."""
    try:
        return _RULES_BY_ID[rule_id.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown rule id {rule_id!r}; known: {', '.join(RULE_IDS)}"
        ) from None


@dataclass(frozen=True)
class AnalysisOptions:
    """What to analyze and which rules to run."""

    root: Path
    #: Restrict to these rule ids (empty = all rules).
    rules: Tuple[str, ...] = ()

    def selected(self, rule_id: str) -> bool:
        if not self.rules:
            return True
        return rule_id in self.rules


@dataclass(frozen=True)
class AnalysisReport:
    """The outcome of one analysis run."""

    root: str
    file_count: int
    rules_run: Tuple[str, ...]
    findings: Tuple[Finding, ...]
    errors: Tuple[SourceError, ...] = ()
    #: Findings dropped by inline ``# repro: allow[...]`` comments.
    suppressed: Tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        """No findings and every file parsed."""
        return not self.findings and not self.errors

    def to_document(self) -> Dict[str, Any]:
        """JSON document form (``repro check --format json``)."""
        return {
            "schema": REPORT_SCHEMA,
            "root": self.root,
            "file_count": self.file_count,
            "rules_run": list(self.rules_run),
            "finding_count": len(self.findings),
            "suppressed_count": len(self.suppressed),
            "findings": [finding.to_dict() for finding in self.findings],
            "errors": [
                {"path": error.rel, "message": error.message}
                for error in self.errors
            ],
        }


#: Required top-level keys of the JSON report and their types — same
#: validation idiom as the telemetry manifest.
_REPORT_REQUIRED: Dict[str, type] = {
    "schema": str,
    "root": str,
    "file_count": int,
    "rules_run": list,
    "finding_count": int,
    "suppressed_count": int,
    "findings": list,
    "errors": list,
}

_FINDING_REQUIRED: Dict[str, type] = {
    "rule": str,
    "path": str,
    "line": int,
    "severity": str,
    "message": str,
    "snippet": str,
}


def validate_report_document(document: Mapping[str, Any]) -> List[str]:
    """Schema problems of a JSON report document (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, Mapping):
        return ["report must be a JSON object"]
    for key, expected in _REPORT_REQUIRED.items():
        if key not in document:
            problems.append(f"missing key: {key}")
        elif not isinstance(document[key], expected):
            problems.append(
                f"key {key}: expected {expected.__name__}, "
                f"got {type(document[key]).__name__}"
            )
    if problems:
        return problems
    if document["schema"] != REPORT_SCHEMA:
        problems.append(f"unknown schema {document['schema']!r}")
    for position, raw in enumerate(document["findings"]):
        if not isinstance(raw, Mapping):
            problems.append(f"findings[{position}]: not an object")
            continue
        for key, expected in _FINDING_REQUIRED.items():
            if key not in raw:
                problems.append(f"findings[{position}]: missing key {key}")
            elif not isinstance(raw[key], expected):
                problems.append(
                    f"findings[{position}].{key}: expected {expected.__name__}"
                )
        rule_id = raw.get("rule")
        if isinstance(rule_id, str) and rule_id not in _RULES_BY_ID:
            problems.append(f"findings[{position}]: unknown rule {rule_id!r}")
    if document["finding_count"] != len(document["findings"]):
        problems.append("finding_count does not match findings length")
    return problems


def _run_checkers(index: TreeIndex) -> List[Finding]:
    # The call graph is built once and shared by every interprocedural
    # checker (dimensions, transitive taint); the hazard scan is shared
    # by the direct and the transitive DET-* rules.
    graph = build_call_graph(index)
    hazards = determinism.scan(index)
    findings: List[Finding] = []
    findings.extend(determinism.check(hazards))
    findings.extend(taint.check(graph, hazards))
    findings.extend(dimensions.check(index, graph))
    return findings


def _stale_suppressions(sources: Sequence[SourceFile]) -> List[Finding]:
    """ALLOW-UNUSED findings for comments that matched nothing.

    Only meaningful after a full-rule run: with a rule filter active,
    a comment for an unselected rule would look unused.  The caller
    gates on that.
    """
    findings: List[Finding] = []
    for source in sources:
        for comment_line in sorted(source.allows):
            for rule_id in sorted(source.allows[comment_line]):
                if (comment_line, rule_id) in source.used_allows:
                    continue
                findings.append(
                    Finding(
                        path=source.rel,
                        line=comment_line,
                        rule="ALLOW-UNUSED",
                        severity="warning",
                        message=(
                            f"suppression `# repro: allow[{rule_id}]` "
                            "matches no finding; drop the stale comment"
                        ),
                        snippet=source.snippet(comment_line),
                    )
                )
    return findings


def analyze_tree(options: AnalysisOptions) -> AnalysisReport:
    """Run the analyzer per ``options`` and return the report."""
    for rule_id in options.rules:
        rule_by_id(rule_id)  # validate early; raises on unknown ids
    index = build_index(options.root)
    sources = {source.rel: source for source in index.files}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in _run_checkers(index):
        if not options.selected(finding.rule):
            continue
        source = sources.get(finding.path)
        if source is not None and source.allowed(finding.rule, finding.line):
            suppressed.append(finding)
        else:
            kept.append(finding)
    if not options.rules:
        # Stale-suppression detection needs the full usage picture: a
        # rule filter would make unselected rules' comments look stale.
        for finding in _stale_suppressions(index.files):
            source = sources.get(finding.path)
            if source is not None and source.allowed(finding.rule, finding.line):
                suppressed.append(finding)
            else:
                kept.append(finding)
    rules_run = options.rules if options.rules else RULE_IDS
    return AnalysisReport(
        root=str(options.root),
        file_count=len(index.files),
        rules_run=tuple(rules_run),
        findings=tuple(sorted(kept)),
        errors=tuple(sorted(index.errors, key=lambda e: e.rel)),
        suppressed=tuple(sorted(suppressed)),
    )


def format_text(report: AnalysisReport) -> str:
    """Human-readable report, one finding per block."""
    lines: List[str] = []
    for error in report.errors:
        lines.append(f"{error.rel}: PARSE-ERROR {error.message}")
    for finding in report.findings:
        lines.append(
            f"{finding.location}: {finding.rule} "
            f"[{finding.severity}] {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(
        f"{report.file_count} files analyzed, {len(report.findings)} findings "
        f"({len(report.suppressed)} suppressed inline)"
    )
    return "\n".join(lines) + "\n"
