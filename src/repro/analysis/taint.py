"""Transitive determinism taint: DET-* hazards through the call graph.

:mod:`repro.analysis.determinism` flags *direct* hazards — a
``time.time()`` call sitting in ``sim/``.  It cannot see a simulation
function calling an innocent-looking helper in ``harness/`` that
reaches the wall clock three frames down.  This pass closes that hole:

1. every function in the tree is scanned for direct hazard *sites*
   (the same classifiers the direct checker uses), excluding sites
   covered by an audited inline suppression and files that are
   host-side by contract (:data:`determinism.SCOPE_EXEMPT_FRAGMENTS`);
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

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis import determinism
from repro.analysis.determinism import (
    _GLOBAL_RANDOM_FUNCS,
    _WALLCLOCK_DATETIME_ATTRS,
    _WALLCLOCK_TIME_ATTRS,
    _call_target,
    _float_sum_hazard,
    _ModuleAliases,
    _set_like_names,
    _unordered_iter,
)
from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph, node_id, owned_nodes
from repro.analysis.flow.dataflow import solve_summaries
from repro.analysis.index import FunctionInfo, TreeIndex

#: Severity of a transitive finding, by originating rule.
_SEVERITIES: Dict[str, str] = {
    "DET-WALLCLOCK": "error",
    "DET-RANDOM": "error",
    "DET-SET-ORDER": "warning",
    "DET-FLOAT-SUM": "warning",
}


@dataclass(frozen=True, order=True)
class TaintSource:
    """One direct hazard site somewhere in the tree."""

    rule: str
    file: str
    line: int
    detail: str


TaintSet = FrozenSet[TaintSource]


def _exempt(rel: str) -> bool:
    """Host-side-by-contract files: their hazards never propagate."""
    return any(
        fragment in rel for fragment in determinism.SCOPE_EXEMPT_FRAGMENTS
    )


def direct_sources(info: FunctionInfo, index: TreeIndex) -> TaintSet:
    """Unsuppressed direct DET-* hazard sites inside one function.

    Uses the same classifiers as the direct checker, restricted to the
    nodes owned by this function's frame, and honours inline
    ``# repro: allow[...]`` comments — an audited hazard must not taint
    callers.
    """
    if _exempt(info.file.rel):
        return frozenset()
    aliases = _ModuleAliases(info.file.tree)
    set_names = _set_like_names(info, index)
    sources: Set[TaintSource] = set()

    def add(rule: str, line: int, detail: str) -> None:
        if info.file.allowed(rule, line):
            return
        sources.add(
            TaintSource(rule=rule, file=info.file.rel, line=line, detail=detail)
        )

    for node in owned_nodes(info.node):
        if isinstance(node, ast.Call):
            base, attr = _call_target(node)
            if (
                (base in aliases.time and attr in _WALLCLOCK_TIME_ATTRS)
                or (
                    base in aliases.datetime
                    and attr in _WALLCLOCK_DATETIME_ATTRS
                )
                or (base is None and attr in aliases.bare_wallclock)
            ):
                add(
                    "DET-WALLCLOCK",
                    node.lineno,
                    f"wall-clock read `{attr}`",
                )
            elif base in aliases.random and attr in _GLOBAL_RANDOM_FUNCS:
                add(
                    "DET-RANDOM",
                    node.lineno,
                    f"process-global RNG `random.{attr}`",
                )
            elif (
                base in aliases.random
                and attr == "Random"
                and not node.args
                and not node.keywords
            ):
                add("DET-RANDOM", node.lineno, "unseeded random.Random()")
            elif base is None and attr == "sum" and node.args:
                hazard = _float_sum_hazard(node.args[0], set_names, index)
                if hazard is not None:
                    add(
                        "DET-FLOAT-SUM",
                        node.lineno,
                        f"order-fragile sum() over {hazard}",
                    )
        elif isinstance(node, ast.For):
            reason = _unordered_iter(node.iter, set_names, index)
            if reason is not None:
                add(
                    "DET-SET-ORDER",
                    node.lineno,
                    f"unordered iteration over {reason}",
                )
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                reason = _unordered_iter(generator.iter, set_names, index)
                if reason is not None:
                    add(
                        "DET-SET-ORDER",
                        node.lineno,
                        f"unordered comprehension over {reason}",
                    )
    return frozenset(sources)


def solve_taint(
    index: TreeIndex, graph: CallGraph
) -> Tuple[Dict[str, TaintSet], Dict[str, TaintSet]]:
    """``(summaries, own)`` taint maps for every node.

    ``summaries[nid]`` is the transitive closure (own sites plus every
    call-reachable callee's); ``own[nid]`` is just this function's
    direct sites — emitters need both to reconstruct paths.
    """
    own: Dict[str, TaintSet] = {
        nid: direct_sources(info, index) for nid, info in graph.nodes.items()
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


def check(
    index: TreeIndex,
    graph: CallGraph,
    scope: Tuple[str, ...] = determinism.DEFAULT_SCOPE,
) -> List[Finding]:
    """Emit transitive DET-* findings at scope-boundary call sites."""
    summaries, own = solve_taint(index, graph)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str, str]] = set()

    for nid in sorted(graph.nodes):
        info = graph.nodes[nid]
        if not determinism.in_scope(info.file.rel, scope):
            continue
        # Group this function's call edges by site (line + written name).
        sites: Dict[Tuple[int, str], Set[str]] = {}
        for edge in graph.edges.get(nid, ()):
            sites.setdefault((edge.line, edge.name), set()).add(edge.target)
        for (line, name), targets in sorted(sites.items()):
            candidates = [graph.nodes[t] for t in sorted(targets)]
            # Must-analysis gate: flag only when every candidate is an
            # out-of-scope, non-exempt definition carrying taint.
            if not candidates:
                continue
            if any(
                determinism.in_scope(c.file.rel, scope)
                or _exempt(c.file.rel)
                for c in candidates
            ):
                continue
            tainted_rules: Set[str] = set()
            for target in targets:
                rules = {s.rule for s in summaries.get(target, frozenset())}
                if not tainted_rules:
                    tainted_rules = rules
                else:
                    tainted_rules &= rules
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
                key = (info.file.rel, line, rule, message)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        path=info.file.rel,
                        line=line,
                        rule=rule,
                        severity=_SEVERITIES.get(rule, "warning"),
                        message=message,
                        snippet=info.file.snippet(line),
                    )
                )
    findings.sort()
    return findings
