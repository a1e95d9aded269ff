"""Shared fixtures for the analyzer tests."""

from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisOptions,
    AnalysisReport,
    TreeIndex,
    analyze_tree,
    build_index,
)
from repro.analysis.flow import CallGraph, build_call_graph

FIXTURE_ROOT = Path(__file__).parent / "fixtures" / "minirepo"
LIVE_ROOT = Path(__file__).resolve().parent.parent.parent / "src" / "repro"


@pytest.fixture(scope="session")
def fixture_report() -> AnalysisReport:
    """One full analysis of the seeded fixture tree, shared per session."""
    return analyze_tree(AnalysisOptions(root=FIXTURE_ROOT))


@pytest.fixture(scope="session")
def live_report() -> AnalysisReport:
    """One full analysis of the shipped source tree, shared per session."""
    return analyze_tree(AnalysisOptions(root=LIVE_ROOT))


@pytest.fixture(scope="session")
def fixture_index() -> TreeIndex:
    """The parsed fixture tree, shared per session."""
    return build_index(FIXTURE_ROOT)


@pytest.fixture(scope="session")
def fixture_graph(fixture_index: TreeIndex) -> CallGraph:
    """The fixture tree's call graph, shared per session."""
    return build_call_graph(fixture_index)


def findings_for(report: AnalysisReport, rule: str, path: str = ""):
    """The report's findings for one rule (optionally one file)."""
    return [
        f
        for f in report.findings
        if f.rule == rule and (not path or f.path == path)
    ]
