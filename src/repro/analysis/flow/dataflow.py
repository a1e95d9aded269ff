"""Worklist fixpoint over the call graph for per-function summaries.

The checkers need *summaries*: one abstract fact per function (the unit
of its return value, the set of nondeterminism sources it transitively
reaches) whose definition refers to the summaries of its callees.  The
classic solution is a monotone worklist fixpoint:

1. start every node at a caller-supplied ``bottom``;
2. recompute a node's summary from the current summaries;
3. when it changed, requeue the node's *callers* (their inputs moved);
4. stop when no summary changes.

The solver is deliberately generic — the summary type is opaque; only
equality is consulted.  Callers guarantee their transfer function is
*monotone on a finite-height domain* (taint sets only grow; unit
summaries move at most known → conflict), which is what makes the
fixpoint terminate and makes the result independent of worklist order
(it is the least fixpoint).  Both properties are asserted by the
hypothesis tests in ``tests/analysis/test_dataflow.py``.

A divergence guard turns a non-monotone transfer (an analyzer bug, not
a property of analyzed code) into :class:`FixpointDiverged` instead of
a hang.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.index import FunctionInfo

S = TypeVar("S")

#: Re-evaluations allowed per node before the solver declares the
#: transfer non-monotone.  Every real domain here has height ≤ a few
#: dozen (taint kinds, unit states); 256 is far beyond any of them.
MAX_UPDATES_PER_NODE = 256


class FixpointDiverged(RuntimeError):
    """The transfer function failed to reach a fixpoint.

    Raised when some node is re-evaluated more than
    :data:`MAX_UPDATES_PER_NODE` times — possible only for a
    non-monotone transfer or an unbounded summary domain, both analyzer
    bugs.
    """


def solve_summaries(
    graph: CallGraph,
    transfer: Callable[[str, FunctionInfo, Mapping[str, S]], S],
    bottom: S,
    order: Optional[Sequence[str]] = None,
) -> Dict[str, S]:
    """Least fixpoint of ``transfer`` over every node of ``graph``.

    ``transfer(nid, info, summaries)`` computes one node's summary from
    the current summary map (it reads its callees' entries; every node
    always has one, starting at ``bottom``).  ``order`` seeds the
    initial worklist — any permutation of the node ids yields the same
    result for a monotone transfer; the parameter exists so the
    order-independence property is *testable*, not so callers can tune
    it.
    """
    node_ids = sorted(graph.nodes)
    if order is not None:
        ordered = [nid for nid in order if nid in graph.nodes]
        ordered.extend(nid for nid in node_ids if nid not in set(ordered))
    else:
        ordered = node_ids

    summaries: Dict[str, S] = {nid: bottom for nid in node_ids}
    worklist: Deque[str] = deque(ordered)
    queued: Set[str] = set(ordered)
    updates: Dict[str, int] = {}

    while worklist:
        nid = worklist.popleft()
        queued.discard(nid)
        new = transfer(nid, graph.nodes[nid], summaries)
        if new == summaries[nid]:
            continue
        count = updates.get(nid, 0) + 1
        if count > MAX_UPDATES_PER_NODE:
            raise FixpointDiverged(
                f"summary of {graph.qualname(nid)} changed {count} times; "
                "transfer function is not monotone on a finite domain"
            )
        updates[nid] = count
        summaries[nid] = new
        for caller in graph.callers.get(nid, ()):
            if caller in queued:
                continue
            worklist.append(caller)
            queued.add(caller)
    return summaries


def join_sets(values: Sequence[FrozenSet[str]]) -> FrozenSet[str]:
    """Union join for set-valued summaries (the taint domain)."""
    out: FrozenSet[str] = frozenset()
    for value in values:
        out = out | value
    return out
