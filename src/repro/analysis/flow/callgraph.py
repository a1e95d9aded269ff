"""Name-resolved call graph over one :class:`TreeIndex`.

Each function or method definition becomes one node; call sites become
edges resolved *by name* against the index, matching the resolution
contract the rest of the analyzer uses (this is a convention checker
for one repository, where bare callable names are near-unique).

Two deliberate conservatisms:

* **Dynamic dispatch fallback** — a name with several definitions links
  to *all* of them (``ambiguous=True`` on the edge).  Summaries that
  propagate a hazard union over candidates, over-approximating what
  can run; finding emitters that anchor a diagnostic to one callee
  require agreement across candidates, under-approximating what they
  claim.  The may/must split keeps the graph sound for propagation
  without turning name collisions into noise.
* **Reference edges** — a function name passed as a value
  (``Process(target=_farm_worker)``, ``executor.map(point_fn, grid)``)
  produces a ``kind="ref"`` edge: the function is not called *here*,
  but escaping as a value means it may be called by machinery the
  graph cannot see.  Callers opt into ref edges (``include_refs``);
  call-path reconstruction leaves them out by default.

Calls that resolve to nothing in the tree (builtins, stdlib, attribute
chains on unknown objects) are counted per node in
:attr:`CallGraph.unresolved` rather than guessed at.
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
    """One resolved call or reference site."""

    line: int
    #: Bare callee name as written at the site.
    name: str
    #: Target node id.
    target: str
    #: ``"call"`` (the name is invoked here) or ``"ref"`` (the function
    #: escapes as a value and may be invoked elsewhere).
    kind: str
    #: Whether the name resolved to more than one definition.
    ambiguous: bool


@dataclass
class CallGraph:
    """Nodes, forward edges, and reverse edges of one analyzed tree."""

    nodes: Dict[str, FunctionInfo] = field(default_factory=dict)
    edges: Dict[str, Tuple[CallEdge, ...]] = field(default_factory=dict)
    callers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Count of call sites per node whose callee could not be resolved.
    unresolved: Dict[str, int] = field(default_factory=dict)

    def qualname(self, nid: str) -> str:
        """Human-readable qualified name of a node id."""
        info = self.nodes.get(nid)
        return info.qualname if info is not None else nid

    def callees(self, nid: str, include_refs: bool = False) -> Tuple[str, ...]:
        """Deduplicated, sorted callee node ids of ``nid``."""
        out: Set[str] = set()
        for edge in self.edges.get(nid, ()):
            if edge.kind == "call" or include_refs:
                out.add(edge.target)
        return tuple(sorted(out))

    def shortest_path(
        self,
        start: str,
        is_target: Callable[[str], bool],
        include_refs: bool = False,
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
                for target in self.callees(nid, include_refs=include_refs):
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
        unresolved = 0
        call_func_exprs: Set[int] = set()
        calls: List[ast.Call] = []
        names: List[ast.expr] = []
        for node in owned_nodes(info.node):
            if isinstance(node, ast.Call):
                calls.append(node)
                call_func_exprs.add(id(node.func))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names.append(node)
        for call in calls:
            name, candidates = call_candidates(index, call.func)
            if not candidates:
                unresolved += 1
                continue
            ambiguous = len(candidates) > 1
            for candidate in candidates:
                edges.append(
                    CallEdge(
                        line=call.lineno,
                        name=name,
                        target=node_id(candidate),
                        kind="call",
                        ambiguous=ambiguous,
                    )
                )
        for expr in names:
            if id(expr) in call_func_exprs:
                continue
            if isinstance(expr, ast.Name):
                if not isinstance(expr.ctx, ast.Load):
                    continue
                name = expr.id
            else:
                if not isinstance(expr.ctx, ast.Load):
                    continue
                name = expr.attr
            candidates = list(index.functions.get(name, []))
            if not candidates:
                continue
            ambiguous = len(candidates) > 1
            for candidate in candidates:
                target = node_id(candidate)
                if target == nid:
                    # Recursive self-reference by name (decorator idiom,
                    # functools.wraps): not an escape.
                    continue
                edges.append(
                    CallEdge(
                        line=expr.lineno,
                        name=name,
                        target=target,
                        kind="ref",
                        ambiguous=ambiguous,
                    )
                )
        ordered = tuple(
            sorted(edges, key=lambda e: (e.line, e.name, e.target, e.kind))
        )
        graph.edges[nid] = ordered
        if unresolved:
            graph.unresolved[nid] = unresolved
        for edge in ordered:
            reverse.setdefault(edge.target, set()).add(nid)

    graph.callers = {
        target: tuple(sorted(sources)) for target, sources in reverse.items()
    }
    return graph
