"""Name-resolved call graph over one :class:`TreeIndex`.

Each function or method definition becomes one node; call sites become
edges resolved *by name* against the index, matching the resolution
contract the rest of the analyzer uses (this is a convention checker
for one repository, where bare callable names are near-unique).

Two deliberate choices:

* **Dynamic dispatch fallback** — a name with several definitions links
  to *all* of them (``ambiguous=True`` on the edge).  Summaries that
  propagate a hazard union over candidates, over-approximating what
  can run; finding emitters that anchor a diagnostic to one callee
  require agreement across candidates, under-approximating what they
  claim.  The may/must split keeps the graph sound for propagation
  without turning name collisions into noise.
* **Calls only** — a function name passed as a value
  (``Process(target=_farm_worker)``, ``executor.map(point_fn, grid)``)
  is not called *here*, so it makes no edge; no checker follows a
  function into the machinery that may call it later.

Calls that resolve to nothing in the tree (builtins, stdlib, attribute
chains on unknown objects) make no edge rather than a guessed one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.index import FunctionInfo, TreeIndex
from repro.analysis.source import FunctionNode

#: AST nodes that open a new analysis scope: their bodies belong to
#: their own graph nodes, not to the enclosing function.
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def node_id(info: FunctionInfo) -> str:
    """Stable unique id of one definition: ``rel::qualname:line``."""
    return f"{info.file.rel}::{info.qualname}:{info.node.lineno}"


def owned_nodes(root: FunctionNode) -> Iterator[ast.AST]:
    """Every AST node executing *in* ``root``'s own frame.

    Descends into expressions, lambdas, and compound statements, but
    not into nested ``def``/``class`` bodies (those are separate graph
    nodes).  Decorators and default-argument expressions of nested
    definitions *do* evaluate in the enclosing frame, so they are
    yielded.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            # The body runs in its own frame; decorators and argument
            # defaults evaluate here.
            stack.extend(getattr(node, "decorator_list", []))
            args = getattr(node, "args", None)
            if args is not None:
                stack.extend(args.defaults)
                stack.extend(d for d in args.kw_defaults if d is not None)
        else:
            stack.extend(ast.iter_child_nodes(node))


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    line: int
    #: Bare callee name as written at the site.
    name: str
    #: Target node id.
    target: str
    #: Whether the name resolved to more than one definition.
    ambiguous: bool


@dataclass
class CallGraph:
    """Nodes, forward edges, and reverse edges of one analyzed tree."""

    nodes: Dict[str, FunctionInfo] = field(default_factory=dict)
    edges: Dict[str, Tuple[CallEdge, ...]] = field(default_factory=dict)
    callers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def qualname(self, nid: str) -> str:
        """Human-readable qualified name of a node id."""
        info = self.nodes.get(nid)
        return info.qualname if info is not None else nid

    def callees(self, nid: str) -> Tuple[str, ...]:
        """Deduplicated, sorted callee node ids of ``nid``."""
        return tuple(sorted({edge.target for edge in self.edges.get(nid, ())}))

    def shortest_path(
        self, start: str, is_target: Callable[[str], bool]
    ) -> Optional[List[str]]:
        """Deterministic BFS path from ``start`` to a target node.

        Neighbors expand in sorted order, so equal-length paths resolve
        the same way on every run — the taint-path messages in a report
        are identical from run to run.
        """
        if start not in self.nodes:
            return None
        if is_target(start):
            return [start]
        parents: Dict[str, str] = {}
        frontier: List[str] = [start]
        seen: Set[str] = {start}
        while frontier:
            next_frontier: List[str] = []
            for nid in frontier:
                for target in self.callees(nid):
                    if target in seen:
                        continue
                    seen.add(target)
                    parents[target] = nid
                    if is_target(target):
                        path = [target]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    next_frontier.append(target)
            frontier = next_frontier
        return None


def _constructor_candidates(
    index: TreeIndex, class_name: str
) -> List[FunctionInfo]:
    """``__init__`` definitions of classes named ``class_name``."""
    inits: List[FunctionInfo] = []
    for cls in index.classes.get(class_name, []):
        wanted = f"{cls.qualname}.__init__"
        for info in index.functions.get("__init__", []):
            if info.qualname == wanted and info.file is cls.file:
                inits.append(info)
    return inits


def call_candidates(
    index: TreeIndex, func: ast.expr
) -> Tuple[str, List[FunctionInfo]]:
    """``(bare name, candidate definitions)`` for a call's func expr."""
    if isinstance(func, ast.Name):
        name = func.id
        candidates = list(index.functions.get(name, []))
        if not candidates:
            candidates = _constructor_candidates(index, name)
        return name, candidates
    if isinstance(func, ast.Attribute):
        return func.attr, list(index.functions.get(func.attr, []))
    return "", []


def build_call_graph(index: TreeIndex) -> CallGraph:
    """Construct the call graph for every definition in ``index``."""
    graph = CallGraph()
    infos: List[FunctionInfo] = sorted(
        (info for defs in index.functions.values() for info in defs),
        key=lambda i: (i.file.rel, i.node.lineno, i.qualname),
    )
    for info in infos:
        graph.nodes[node_id(info)] = info

    reverse: Dict[str, Set[str]] = {}
    for info in infos:
        nid = node_id(info)
        edges: List[CallEdge] = []
        for call in owned_nodes(info.node):
            if not isinstance(call, ast.Call):
                continue
            name, candidates = call_candidates(index, call.func)
            ambiguous = len(candidates) > 1
            for candidate in candidates:
                edges.append(
                    CallEdge(
                        line=call.lineno,
                        name=name,
                        target=node_id(candidate),
                        ambiguous=ambiguous,
                    )
                )
        ordered = tuple(sorted(edges, key=lambda e: (e.line, e.name, e.target)))
        graph.edges[nid] = ordered
        for edge in ordered:
            reverse.setdefault(edge.target, set()).add(nid)

    graph.callers = {
        target: tuple(sorted(sources)) for target, sources in reverse.items()
    }
    return graph
