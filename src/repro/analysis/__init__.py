"""Static invariant analysis for the repro tree (``repro check``).

Seven checker families guard the properties the reproduction's tests
assume but cannot economically re-verify on every run:

* **determinism** — simulation/model code must not read wall clocks,
  draw unseeded randomness, or iterate unordered collections where
  order reaches results (bitwise-identical reruns are a tier-1
  invariant); transitive DET-* findings follow the call graph to
  helpers defined outside the scoped trees;
* **units** — SI base units internally, with conversions through
  :mod:`repro.units` named constants only;
* **dimensions** — interprocedural dimensional analysis: physical
  units as exponent vectors propagated through arithmetic and return
  values (``power * time`` unifies with J; GHz + Hz is flagged);
* **hotpath** — functions marked ``# repro: hot`` stay allocation-
  and dispatch-free (the PR 2 fast-path contract);
* **picklability** — everything crossing the executor outcome channel
  or the result cache stays pickle-stable;
* **forksafety** — functions reachable from executor worker entry
  points must not touch module-level mutable state that diverges
  between the inline and farm lanes;
* **suppressions** — inline ``# repro: allow[...]`` comments that no
  longer match a finding are themselves flagged (ALLOW-UNUSED).

The interprocedural passes ride on :mod:`repro.analysis.flow` — a
name-resolved call graph plus a worklist dataflow fixpoint.

Public API::

    from repro.analysis import AnalysisOptions, analyze_tree
    report = analyze_tree(AnalysisOptions(root=Path("src/repro")))
    for finding in report.findings:
        print(finding.location, finding.rule, finding.message)

See docs/ANALYSIS.md for every rule, the suppression syntax, and the
baseline workflow.
"""

from repro.analysis.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    BaselineEntry,
    baseline_from_document,
    baseline_from_findings,
    load_baseline,
    save_baseline,
)
from repro.analysis.changed import (
    ChangedLinesError,
    changed_lines,
    gate_findings,
    parse_diff,
)
from repro.analysis.findings import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    Rule,
)
from repro.analysis.index import ClassInfo, FunctionInfo, TreeIndex, build_index
from repro.analysis.runner import (
    REPORT_SCHEMA,
    RULE_IDS,
    RULES,
    AnalysisOptions,
    AnalysisReport,
    analyze_tree,
    default_baseline_path,
    format_text,
    rule_by_id,
    validate_report_document,
)
from repro.analysis.sarif import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    to_sarif,
    validate_sarif_document,
)
from repro.analysis.source import SourceError, SourceFile, load_source_file

__all__ = [
    "BASELINE_SCHEMA",
    "REPORT_SCHEMA",
    "RULES",
    "RULE_IDS",
    "SARIF_SCHEMA_URI",
    "SARIF_VERSION",
    "ChangedLinesError",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "AnalysisOptions",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "ClassInfo",
    "Finding",
    "FunctionInfo",
    "Rule",
    "SourceError",
    "SourceFile",
    "TreeIndex",
    "analyze_tree",
    "baseline_from_document",
    "baseline_from_findings",
    "build_index",
    "changed_lines",
    "default_baseline_path",
    "format_text",
    "gate_findings",
    "load_baseline",
    "load_source_file",
    "parse_diff",
    "rule_by_id",
    "save_baseline",
    "to_sarif",
    "validate_report_document",
    "validate_sarif_document",
]
