"""Static invariant analysis for the repro tree (``repro check``).

Three checker families guard the properties the reproduction's tests
assume but cannot economically re-verify on every run:

* **determinism** — simulation/model code must not read wall clocks,
  draw unseeded randomness, or iterate unordered collections where
  order reaches results (bitwise-identical reruns are a tier-1
  invariant);
* **transitive taint** — the DET-* hazards followed through the call
  graph to helpers defined outside the scoped trees;
* **dimensions** — the one unit checker, over the whole tree: SI base
  units internally, conversions through :mod:`repro.units` named
  constants, and physical units as exponent vectors propagated through
  arithmetic, calls and return values (``power * time`` unifies with
  J; GHz + Hz is flagged).

Inline ``# repro: allow[...]`` comments suppress audited findings, and
an allow that no longer matches a finding is itself flagged
(ALLOW-UNUSED).

The interprocedural passes ride on :mod:`repro.analysis.flow` — a
name-resolved call graph plus a worklist dataflow fixpoint.

Public API::

    from repro.analysis import AnalysisOptions, analyze_tree
    report = analyze_tree(AnalysisOptions(root=Path("src/repro")))
    for finding in report.findings:
        print(finding.location, finding.rule, finding.message)

See docs/ANALYSIS.md for every rule and the suppression syntax.
"""

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
    format_text,
    rule_by_id,
    validate_report_document,
)
from repro.analysis.source import SourceError, SourceFile, load_source_file

__all__ = [
    "REPORT_SCHEMA",
    "RULES",
    "RULE_IDS",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "AnalysisOptions",
    "AnalysisReport",
    "ClassInfo",
    "Finding",
    "FunctionInfo",
    "Rule",
    "SourceError",
    "SourceFile",
    "TreeIndex",
    "analyze_tree",
    "build_index",
    "format_text",
    "load_source_file",
    "rule_by_id",
    "validate_report_document",
]
