"""Call-graph construction: cycles, dispatch fallback, modern syntax."""

from repro.analysis.flow import CallGraph, call_candidates


def _only_id(graph: CallGraph, name: str) -> str:
    ids = sorted(
        nid
        for nid, info in graph.nodes.items()
        if name in (info.name, info.qualname)
    )
    assert len(ids) == 1, f"expected one definition of {name}, got {ids}"
    return ids[0]


def _callee_names(graph, nid, include_refs=False):
    return {
        graph.qualname(target)
        for target in graph.callees(nid, include_refs=include_refs)
    }


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
    targets = {fixture_graph.qualname(e.target) for e in issue_edges}
    assert targets == {"AluPort.issue", "MemPort.issue"}
    assert all(e.ambiguous for e in issue_edges)


def test_escaping_function_value_is_a_ref_edge_not_a_call(fixture_graph):
    nid = _only_id(fixture_graph, "escape_reference")
    assert "countdown" not in _callee_names(fixture_graph, nid)
    assert "countdown" in _callee_names(
        fixture_graph, nid, include_refs=True
    )
    ref_edges = [
        e for e in fixture_graph.edges[nid] if e.kind == "ref"
    ]
    assert {fixture_graph.qualname(e.target) for e in ref_edges} == {
        "countdown"
    }


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
    import ast

    calls = [n for n in ast.walk(info.node) if isinstance(n, ast.Call)]
    assert calls, "fixture must contain the port.issue call"
    name, candidates = call_candidates(fixture_index, calls[0].func)
    assert name == "issue"
    assert {c.qualname for c in candidates} == {
        "AluPort.issue",
        "MemPort.issue",
    }
