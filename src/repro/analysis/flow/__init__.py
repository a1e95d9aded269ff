"""Interprocedural flow analysis: call graph + dataflow fixpoint.

This subpackage gives the checkers whole-program reach:

* :mod:`repro.analysis.flow.callgraph` — a name-resolved call graph over
  the :class:`~repro.analysis.index.TreeIndex`, with a conservative
  fallback for dynamic dispatch (every same-name definition is linked);
* :mod:`repro.analysis.flow.dataflow` — a generic worklist fixpoint over
  that graph for per-function summaries (return units, taint sets).

The dimensional-analysis and transitive-determinism checkers are built
on these two passes (see docs/ANALYSIS.md).
"""

from repro.analysis.flow.callgraph import (
    CallEdge,
    CallGraph,
    build_call_graph,
    call_candidates,
    node_id,
    owned_nodes,
)
from repro.analysis.flow.dataflow import (
    FixpointDiverged,
    join_sets,
    solve_summaries,
)

__all__ = [
    "CallEdge",
    "CallGraph",
    "build_call_graph",
    "call_candidates",
    "node_id",
    "owned_nodes",
    "FixpointDiverged",
    "join_sets",
    "solve_summaries",
]
