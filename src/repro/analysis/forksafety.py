"""Fork-safety checker: module-level mutable state vs executor workers.

The sweep harness runs every point one of two ways — inline or in the
farm — and the bitwise-equivalence guarantee across lanes assumes worker
processes compute from their *arguments*, not from module-level state
that happens to differ between the coordinator and a fork/spawn child.
This pass makes that assumption checkable:

1. **Worker closure** — the functions reachable (call *and* ref edges:
   a worker entry is usually passed as a value, ``Process(target=...)``)
   from the executor lanes' entry points.  Entry points are discovered
   from ``target=``/``initializer=`` keywords and first arguments of
   ``.map(...)``-style calls, plus the known lane entries
   (:data:`DEFAULT_WORKER_ENTRIES`).
2. **Module-mutable registry** — top-level ``NAME = <mutable>``
   bindings anywhere in the tree (dict/list/set displays,
   comprehensions, constructor calls).  Tuples, frozensets, and scalar
   constants are immutable and exempt.  Matching is by bare name, the
   same convention the call graph uses — ``from repro.sim.ops import
   stream_cache`` keeps referring to the same global.
3. **Rules**, evaluated only inside the worker closure:

   * ``FORK-GLOBAL-WRITE`` (error) — a worker-reachable function
     rebinding (``global``), item/attribute-storing, or calling a
     mutator method on a module-mutable.  Lane divergence: the write
     lands in one worker's copy, not the coordinator's or the inline
     lane's.
   * ``FORK-LAZY-INIT`` (warning) — ``if NAME is None:`` /
     ``if not NAME:`` guarding a global rebind: each worker initializes
     its own copy at an order-dependent moment; on fork the parent's
     half-built value may leak through.
   * ``FORK-UNPICKLED-STATE`` (warning) — a worker-reachable *read* of
     a module-mutable whose only function writers are
     coordinator-side: on spawn platforms the worker sees the
     import-time default, silently missing whatever the coordinator
     installed.  Import-time population (``_NODES = {...}`` with no
     function writers) is fork-safe and not flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import (
    CallGraph,
    call_candidates,
    node_id,
    owned_nodes,
)
from repro.analysis.index import FunctionInfo, TreeIndex

#: Lane worker entries that are invoked through objects the call graph
#: cannot resolve (a ``_PointCall`` instance a farm child calls).
DEFAULT_WORKER_ENTRIES: Tuple[str, ...] = (
    "_PointCall.__call__",
    "_farm_worker",
    "_seed_stream_cache",
)

#: Keyword arguments whose value is a function executed in a child.
_WORKER_KEYWORDS = frozenset({"target", "initializer"})

#: ``executor.map(fn, ...)``-style methods whose first argument runs in
#: workers.
_MAP_METHODS = frozenset({"map", "map_values", "submit", "apply_async"})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "put",
        "seed",
        "push",
        "record",
        "sort",
        "reverse",
    }
)

#: Value expressions that build a mutable object at module level.
_MUTABLE_DISPLAYS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
    ast.Call,
)


@dataclass(frozen=True)
class ModuleGlobal:
    """One module-level mutable binding."""

    name: str
    file: str
    line: int


def _module_mutables(index: TreeIndex) -> Dict[str, ModuleGlobal]:
    """Bare name → module-level mutable binding, tree-wide.

    On a (rare) cross-module name collision the first definition in
    path order wins; the checker only needs *a* definition site for the
    message.
    """
    registry: Dict[str, ModuleGlobal] = {}
    for source in index.files:
        for stmt in source.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not isinstance(value, _MUTABLE_DISPLAYS):
                continue
            if isinstance(value, ast.Call):
                # `tuple(...)`/`frozenset(...)` construct immutables.
                _, attr = _callee_name(value)
                if attr in ("tuple", "frozenset", "namedtuple"):
                    continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in registry:
                    registry[target.id] = ModuleGlobal(
                        name=target.id, file=source.rel, line=stmt.lineno
                    )
    return registry


def _callee_name(call: ast.Call) -> Tuple[Optional[str], str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value.id if isinstance(func.value, ast.Name) else None
        return base, func.attr
    if isinstance(func, ast.Name):
        return None, func.id
    return None, ""


def _locally_bound(info: FunctionInfo) -> Set[str]:
    """Names bound inside the function (params, assigns, loops, ...)."""
    bound: Set[str] = set()
    args = info.node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    declared_global: Set[str] = set()
    for node in owned_nodes(info.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ImportFrom) or isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return bound - declared_global


@dataclass
class _Access:
    """Every interaction one function has with module-mutables."""

    #: global name → line of first rebind via ``global`` statement.
    rebinds: Dict[str, int]
    #: rebind lines that sit under an ``if NAME is None/not NAME`` guard.
    lazy_lines: Set[int]
    #: global name → line of first in-place mutation (store or mutator).
    mutations: Dict[str, int]
    #: global name → line of first plain read.
    reads: Dict[str, int]


def _guarded_lazy_lines(info: FunctionInfo, name: str) -> Set[int]:
    """Lines of ``name = ...`` under an ``is None``/``not name`` guard."""
    lines: Set[int] = set()
    for node in owned_nodes(info.node):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        guarded = (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == name
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ) or (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id == name
        )
        if not guarded:
            continue
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        lines.add(stmt.lineno)
    return lines


def _scan_function(
    info: FunctionInfo, mutables: Dict[str, ModuleGlobal]
) -> _Access:
    """Classify every module-mutable access inside one function."""
    bound = _locally_bound(info)
    declared_global: Set[str] = set()
    for node in owned_nodes(info.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)

    def is_global_ref(name: str) -> bool:
        if name not in mutables and name not in declared_global:
            return False
        return name in declared_global or name not in bound

    access = _Access(rebinds={}, lazy_lines=set(), mutations={}, reads={})
    for node in owned_nodes(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    access.rebinds.setdefault(target.id, node.lineno)
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = target.value
                    if (
                        isinstance(root, ast.Name)
                        and is_global_ref(root.id)
                        and root.id in mutables
                    ):
                        access.mutations.setdefault(root.id, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _MUTATOR_METHODS
                and is_global_ref(func.value.id)
                and func.value.id in mutables
            ):
                access.mutations.setdefault(func.value.id, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if is_global_ref(node.id) and node.id in mutables:
                access.reads.setdefault(node.id, node.lineno)
    for name in set(access.rebinds):
        access.lazy_lines.update(_guarded_lazy_lines(info, name))
    return access


def worker_roots(index: TreeIndex, graph: CallGraph) -> Tuple[str, ...]:
    """Node ids of every function that runs in a child process."""
    roots: Set[str] = set()
    for entry in DEFAULT_WORKER_ENTRIES:
        roots.update(graph.ids_for_name(entry))
    for nid in graph.nodes:
        info = graph.nodes[nid]
        for node in owned_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            candidates: List[ast.expr] = []
            for keyword in node.keywords:
                if keyword.arg in _WORKER_KEYWORDS:
                    candidates.append(keyword.value)
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MAP_METHODS
                and node.args
            ):
                candidates.append(node.args[0])
            for expr in candidates:
                if isinstance(expr, (ast.Name, ast.Attribute)):
                    _, resolved = call_candidates(index, expr)
                    for target in resolved:
                        roots.add(node_id(target))
    return tuple(sorted(roots))


def check(index: TreeIndex, graph: CallGraph) -> List[Finding]:
    """Run FORK-GLOBAL-WRITE / FORK-LAZY-INIT / FORK-UNPICKLED-STATE."""
    mutables = _module_mutables(index)
    if not mutables:
        return []
    roots = worker_roots(index, graph)
    closure = graph.reachable(roots, include_refs=True)

    accesses: Dict[str, _Access] = {
        nid: _scan_function(graph.nodes[nid], mutables) for nid in graph.nodes
    }
    #: global name → function node ids that write it (anywhere in tree).
    writers: Dict[str, Set[str]] = {}
    for nid, access in accesses.items():
        for name in set(access.rebinds) | set(access.mutations):
            writers.setdefault(name, set()).add(nid)

    findings: List[Finding] = []
    emitted: Set[Tuple[str, str, str]] = set()

    def emit(
        nid: str, rule: str, severity: str, line: int, message: str
    ) -> None:
        info = graph.nodes[nid]
        key = (nid, rule, message)
        if key in emitted:
            return
        emitted.add(key)
        findings.append(
            Finding(
                path=info.file.rel,
                line=line,
                rule=rule,
                severity=severity,
                message=message,
                snippet=info.file.snippet(line),
            )
        )

    for nid in sorted(closure):
        info = graph.nodes[nid]
        access = accesses[nid]
        for name, line in sorted(access.rebinds.items()):
            which = mutables.get(name)
            origin = (
                f" (defined at {which.file}:{which.line})" if which else ""
            )
            if line in access.lazy_lines or access.lazy_lines & set(
                range(line, line + 1)
            ):
                emit(
                    nid,
                    "FORK-LAZY-INIT",
                    "warning",
                    line,
                    f"`{info.qualname}` lazily initializes module global "
                    f"`{name}`{origin} inside a worker-reachable path; each "
                    "lane initializes its own copy at a different moment",
                )
            else:
                emit(
                    nid,
                    "FORK-GLOBAL-WRITE",
                    "error",
                    line,
                    f"`{info.qualname}` rebinds module global `{name}`"
                    f"{origin} while worker-reachable; the write diverges "
                    "between the inline and farm lanes",
                )
        for name, line in sorted(access.mutations.items()):
            which = mutables[name]
            emit(
                nid,
                "FORK-GLOBAL-WRITE",
                "error",
                line,
                f"`{info.qualname}` mutates module global `{name}` "
                f"(defined at {which.file}:{which.line}) while "
                "worker-reachable; the write diverges between the inline "
                "and farm lanes",
            )
        for name, line in sorted(access.reads.items()):
            if name in access.rebinds or name in access.mutations:
                continue  # initializer pattern: handled above
            writer_ids = writers.get(name, set())
            if not writer_ids:
                continue  # import-time population only: fork-safe
            if writer_ids & closure:
                continue  # a worker-side writer exists (seeding path)
            which = mutables[name]
            coordinator_side = ", ".join(
                sorted(graph.qualname(w) for w in writer_ids)[:3]
            )
            emit(
                nid,
                "FORK-UNPICKLED-STATE",
                "warning",
                line,
                f"`{info.qualname}` reads module global `{name}` (defined "
                f"at {which.file}:{which.line}) whose writers "
                f"({coordinator_side}) never run in workers; spawn-lane "
                "workers see the import-time default",
            )
    findings.sort()
    return findings
