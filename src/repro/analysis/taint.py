"""Transitive determinism taint: DET-* hazards through the call graph.

:mod:`repro.analysis.determinism` flags *direct* hazards — a
``time.time()`` call sitting in ``sim/``.  It cannot see a simulation
function calling an innocent-looking helper in ``harness/`` that
reaches the wall clock three frames down.  This pass closes that hole:

1. every function's sources are the direct checker's own hazard
   sites (:func:`determinism.scan`), excluding sites covered by an
   audited inline suppression and files that are host-side by
   contract (:data:`determinism.SCOPE_EXEMPT_FRAGMENTS`);
2. a fixpoint over the call graph unions each function's own sites
   with its callees' — the classic monotone taint domain;
3. findings are emitted **at the boundary**: a call site inside the
   determinism scope whose callee is defined *outside* it and carries
   taint.  In-scope callees are never re-flagged here (their hazards
   are already direct findings), so each taint entering the scope is
   reported exactly once, where it crosses.

Dynamic-dispatch conservatism follows the may/must split: taint
*propagates* through every same-name candidate, but a call site is
only *flagged* when every candidate is tainted and out of scope —
ambiguity widens what we track, not what we claim.

The finding message carries the full taint path::

    call to `host_stats` transitively reaches wall-clock read
    `perf_counter` at harness/profiler.py:42
    via host_stats -> _sample_counters

so the audit trail does not require re-running the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.determinism import SEVERITIES, Hazards, exempt, in_scope
from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.dataflow import solve_summaries
from repro.analysis.index import FunctionInfo


@dataclass(frozen=True, order=True)
class TaintSource:
    """One direct hazard site somewhere in the tree."""

    rule: str
    file: str
    line: int
    detail: str


TaintSet = FrozenSet[TaintSource]


def direct_sources(info: FunctionInfo, hazards: Hazards) -> TaintSet:
    """Unsuppressed direct DET-* hazard sites inside one function.

    The direct rule's own sites for this function's frame, minus those
    an inline ``# repro: allow[...]`` covers: an audited hazard must
    not taint callers.
    """
    if exempt(info.file.rel):
        return frozenset()
    return frozenset(
        TaintSource(
            rule=site.rule, file=info.file.rel, line=site.line, detail=site.detail
        )
        for site in hazards.get(info.node, ())
        if not info.file.allowed(site.rule, site.line)
    )


def solve_taint(
    graph: CallGraph, hazards: Hazards
) -> Tuple[Dict[str, TaintSet], Dict[str, TaintSet]]:
    """``(summaries, own)`` taint maps for every node.

    ``summaries[nid]`` is the transitive closure (own sites plus every
    call-reachable callee's); ``own[nid]`` is just this function's
    direct sites — emitters need both to reconstruct paths.
    """
    own: Dict[str, TaintSet] = {
        nid: direct_sources(info, hazards) for nid, info in graph.nodes.items()
    }

    def transfer(
        nid: str, info: FunctionInfo, summaries: Mapping[str, TaintSet]
    ) -> TaintSet:
        out: Set[TaintSource] = set(own[nid])
        for callee in graph.callees(nid):
            out.update(summaries[callee])
        return frozenset(out)

    summaries = solve_summaries(graph, transfer, bottom=frozenset())
    return summaries, own


def _taint_path(
    graph: CallGraph,
    start: str,
    rule: str,
    own: Mapping[str, TaintSet],
) -> Optional[List[str]]:
    """Deterministic call path from ``start`` to a direct ``rule`` site."""
    return graph.shortest_path(
        start,
        is_target=lambda nid: any(s.rule == rule for s in own.get(nid, ())),
    )


def check(graph: CallGraph, hazards: Hazards) -> List[Finding]:
    """Emit transitive DET-* findings at scope-boundary call sites."""
    summaries, own = solve_taint(graph, hazards)
    findings: List[Finding] = []

    for nid in sorted(graph.nodes):
        info = graph.nodes[nid]
        if not in_scope(info.file.rel):
            continue
        # Group this function's call edges by site (line + written name).
        sites: Dict[Tuple[int, str], Set[str]] = {}
        for edge in graph.edges.get(nid, ()):
            sites.setdefault((edge.line, edge.name), set()).add(edge.target)
        for (line, name), targets in sorted(sites.items()):
            # Must-analysis gate: flag only when every candidate is an
            # out-of-scope, non-exempt definition carrying taint.
            files = [graph.nodes[t].file.rel for t in targets]
            if any(in_scope(rel) or exempt(rel) for rel in files):
                continue
            rule_sets = [{s.rule for s in summaries[t]} for t in targets]
            tainted_rules = rule_sets[0].intersection(*rule_sets[1:])
            for rule in sorted(tainted_rules):
                representative = sorted(targets)[0]
                path = _taint_path(graph, representative, rule, own)
                if path is None:
                    continue
                source = min(
                    s for s in own.get(path[-1], ()) if s.rule == rule
                )
                via = " -> ".join(graph.qualname(step) for step in path)
                message = (
                    f"call to `{name}` transitively reaches {source.detail} "
                    f"at {source.file}:{source.line} via {via}"
                )
                findings.append(
                    Finding(
                        path=info.file.rel,
                        line=line,
                        rule=rule,
                        severity=SEVERITIES[rule],
                        message=message,
                        snippet=info.file.snippet(line),
                    )
                )
    findings.sort()
    return findings
