"""Call-graph construction: cycles, dispatch fallback, modern syntax."""

import ast

from repro.analysis.flow import CallGraph, call_candidates, owned_nodes


def _only_id(graph: CallGraph, name: str) -> str:
    ids = sorted(
        nid
        for nid, info in graph.nodes.items()
        if name in (info.name, info.qualname)
    )
    assert len(ids) == 1, f"expected one definition of {name}, got {ids}"
    return ids[0]


def _callee_names(graph, nid):
    return {graph.qualname(target) for target in graph.callees(nid)}


def test_direct_recursion_is_a_one_node_cycle(fixture_graph):
    nid = _only_id(fixture_graph, "countdown")
    assert "countdown" in _callee_names(fixture_graph, nid)


def test_mutual_recursion_links_both_directions(fixture_graph):
    ping = _only_id(fixture_graph, "ping")
    pong = _only_id(fixture_graph, "pong")
    assert "pong" in _callee_names(fixture_graph, ping)
    assert "ping" in _callee_names(fixture_graph, pong)


def test_async_def_with_walrus_is_an_ordinary_node(fixture_graph):
    nid = _only_id(fixture_graph, "async_step")
    callees = _callee_names(fixture_graph, nid)
    # Recursion through `await`, plus the fallback branch.
    assert "async_step" in callees
    assert "countdown" in callees


def test_match_statement_bodies_are_walked(fixture_graph):
    nid = _only_id(fixture_graph, "dispatch_shape")
    assert {"ping", "pong", "countdown"} <= _callee_names(fixture_graph, nid)


def test_dynamic_dispatch_links_every_same_name_candidate(fixture_graph):
    nid = _only_id(fixture_graph, "dynamic_dispatch")
    issue_edges = [
        e for e in fixture_graph.edges[nid] if e.name == "issue"
    ]
    # One call site, one edge per candidate definition.
    assert len(issue_edges) == 2
    assert len({e.line for e in issue_edges}) == 1
    targets = {fixture_graph.qualname(e.target) for e in issue_edges}
    assert targets == {"AluPort.issue", "MemPort.issue"}


def test_escaping_function_value_makes_no_edge(fixture_graph):
    nid = _only_id(fixture_graph, "escape_reference")
    assert "countdown" not in _callee_names(fixture_graph, nid)


def test_shortest_path_is_deterministic_and_minimal(fixture_graph):
    start = _only_id(fixture_graph, "dispatch_shape")
    target = _only_id(fixture_graph, "pong")
    path = fixture_graph.shortest_path(start, lambda nid: nid == target)
    assert path is not None
    assert [fixture_graph.qualname(nid) for nid in path] == [
        "dispatch_shape",
        "pong",
    ]
    # Same query, same answer: BFS order is sorted, not hash order.
    again = fixture_graph.shortest_path(start, lambda nid: nid == target)
    assert again == path


def test_call_candidates_resolve_names_and_attributes(
    fixture_index, fixture_graph
):
    nid = _only_id(fixture_graph, "dynamic_dispatch")
    info = fixture_graph.nodes[nid]
    calls = [n for n in ast.walk(info.node) if isinstance(n, ast.Call)]
    assert calls, "fixture must contain the port.issue call"
    name, candidates = call_candidates(fixture_index, calls[0].func)
    assert name == "issue"
    assert {c.qualname for c in candidates} == {
        "AluPort.issue",
        "MemPort.issue",
    }


_FRAMES_SOURCE = """
import functools

@functools.lru_cache(maxsize=limit())
def outer(x=default()):
    class Inner(Base(x), metaclass=meta()):
        def method(self, y=other()):
            return body(y)
    return outer_body(Inner)
"""


def test_every_node_runs_in_exactly_one_frame():
    # A nested definition's decorators, defaults and bases evaluate in
    # the enclosing frame, its body in its own: no node is owned twice.
    tree = ast.parse(_FRAMES_SOURCE)
    frames = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    # Context and operator nodes are shared singletons; skip them.
    owned = [
        id(node)
        for frame in frames
        for node in owned_nodes(frame)
        if isinstance(node, (ast.stmt, ast.expr))
    ]
    assert len(owned) == len(set(owned))

    def calls(frame):
        return sorted(
            node.func.id
            for node in owned_nodes(frame)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        )

    module, outer, inner, method = frames
    assert calls(module) == ["default", "limit"]
    assert calls(outer) == ["Base", "meta", "outer_body"]
    assert calls(inner) == ["other"]
    assert calls(method) == ["body"]
