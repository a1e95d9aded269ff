"""Fixpoint solver properties: termination, order independence."""

from typing import FrozenSet, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.flow import (
    FixpointDiverged,
    join_sets,
    solve_summaries,
)


def _reaches_transfer(nid, info, summaries: Mapping[str, FrozenSet[str]]):
    """Set-domain transfer: the node's own name + everything callees reach.

    The same shape as the determinism taint: a monotone union over call
    edges, so the least fixpoint is the call-graph reachability closure.
    """
    graph = _reaches_transfer.graph
    values = [frozenset({info.qualname})]
    values.extend(summaries[target] for target in graph.callees(nid))
    return join_sets(values)


def _solve_reaches(graph, order=None):
    _reaches_transfer.graph = graph
    return solve_summaries(
        graph, _reaches_transfer, frozenset(), order=order
    )


def _by_qualname(graph, summaries):
    return {
        graph.qualname(nid): value for nid, value in summaries.items()
    }


def test_fixpoint_closes_over_cycles(fixture_graph):
    named = _by_qualname(fixture_graph, _solve_reaches(fixture_graph))
    # Mutual recursion: each member reaches the whole cycle.
    assert {"ping", "pong"} <= named["ping"]
    assert {"ping", "pong"} <= named["pong"]
    # Direct recursion terminates and includes itself exactly once.
    assert "countdown" in named["countdown"]
    # The match dispatcher reaches all three branches.
    assert {"ping", "pong", "countdown"} <= named["dispatch_shape"]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fixpoint_is_worklist_order_independent(fixture_graph, data):
    node_ids = sorted(fixture_graph.nodes)
    order = data.draw(st.permutations(node_ids))
    assert _solve_reaches(fixture_graph, order=list(order)) == (
        _solve_reaches(fixture_graph)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fixpoint_terminates_for_monotone_transfer(fixture_graph, seed):
    import random

    node_ids = sorted(fixture_graph.nodes)
    order = list(node_ids)
    random.Random(seed).shuffle(order)
    summaries = _solve_reaches(fixture_graph, order=order)
    # Every node got a summary containing at least itself.
    for nid, value in summaries.items():
        assert fixture_graph.qualname(nid) in value


def test_non_monotone_transfer_raises_instead_of_hanging(fixture_graph):
    counter = {"n": 0}

    def oscillating(nid, info, summaries):
        # Never stabilizes: each evaluation returns a fresh value, and
        # the self-recursive nodes keep requeuing themselves.
        counter["n"] += 1
        return counter["n"]

    with pytest.raises(FixpointDiverged):
        solve_summaries(fixture_graph, oscillating, 0)


def test_join_sets_is_a_plain_union():
    assert join_sets([]) == frozenset()
    assert join_sets(
        [frozenset({"a"}), frozenset({"b"}), frozenset({"a", "c"})]
    ) == {"a", "b", "c"}
