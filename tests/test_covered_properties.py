"""Removable classes, minimality, near-bipartiteness and the brick test
against the definitions, on generated multigraphs and named edge cases."""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings

from matchcov import (
    Multigraph,
    enumerate_connected_graphs,
    is_bicritical,
    is_brick,
    is_matching_covered,
    is_minimal_mc,
    is_near_bipartite,
    is_removable_edge,
    removable_classes,
    removable_doubletons,
    removable_edges,
    vertex_connectivity,
)
from matchcov.errors import EdgeOutOfRangeError, NotMatchingCoveredError
from matchcov.zoo import complete_graph, cycle_graph, path_graph
from conftest import mc_by_definition, multigraphs

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def expected_removable(g):
    return tuple(e for e in range(g.m) if mc_by_definition(g.delete_edges([e])))


def expected_doubletons(g, singles):
    rest = [e for e in range(g.m) if e not in singles]
    return tuple(
        (e, f) for e, f in combinations(rest, 2) if mc_by_definition(g.delete_edges([e, f]))
    )


def expected_near_bipartite(g):
    if g.is_bipartite():
        return None
    for e, f in combinations(range(g.m), 2):
        h = g.delete_edges([e, f])
        if h.is_bipartite() and mc_by_definition(h):
            return (e, f)
    return None


def check_against_definition(g):
    if not mc_by_definition(g):
        assert not is_minimal_mc(g)
        with pytest.raises(NotMatchingCoveredError):
            removable_edges(g)
        with pytest.raises(NotMatchingCoveredError):
            is_near_bipartite(g)
        return
    singles = expected_removable(g)
    assert removable_edges(g) == singles
    assert all(is_removable_edge(g, e) == (e in singles) for e in range(g.m))
    assert removable_doubletons(g) == expected_doubletons(g, singles)
    assert is_minimal_mc(g) == (not singles)
    assert is_near_bipartite(g) == expected_near_bipartite(g)


def check_minimal_against_definition(g):
    # A fresh copy first: the early exit answers from its own searches, and
    # the definition then reads every edge of the other copy.
    fresh = Multigraph(g.n, g.edges)
    assert is_minimal_mc(fresh) == (is_matching_covered(g) and not removable_edges(g)), g.edges


@PROPERTY_SETTINGS
@given(multigraphs(8, even=True))
def test_removability_matches_definition(g):
    check_against_definition(g)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1)],  # K2: its one edge is not removable
        [(0, 1)] * 3,  # K2 tripled: every copy is removable
        [(0, 1), (1, 2), (2, 3), (0, 3)],  # C4: opposite edges disconnect it
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 3)],  # C4 with a parallel pair
        [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)],  # K4 with a parallel pair
        [(0, 1)] * 2,  # K2 doubled: not minimal, though K2 is
        [(0, 1), (2, 3)],  # two K2s: not connected, so not covered
    ],
)
def test_removability_named_cases(edges):
    g = Multigraph(max(max(e) for e in edges) + 1, edges)
    check_minimal_against_definition(g)
    check_against_definition(g)


def test_minimal_matches_definition_on_small_graphs():
    for n in range(1, 9):
        for g in enumerate_connected_graphs(n):
            check_minimal_against_definition(g)


@PROPERTY_SETTINGS
@given(multigraphs(8, even=False))
def test_minimal_matches_definition(g):
    check_minimal_against_definition(g)


def test_brick_matches_connectivity_oracle_on_small_graphs():
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            assert is_brick(g) == (is_bicritical(g) and vertex_connectivity(g) >= 3), g.edges


@PROPERTY_SETTINGS
@given(multigraphs(8, even=False))
def test_brick_matches_connectivity_oracle(g):
    assert is_brick(g) == (is_bicritical(g) and vertex_connectivity(g) >= 3)


@PROPERTY_SETTINGS
@given(multigraphs(8, even=True))
def test_multigraph_verdicts_follow_the_underlying_simple_graph(g):
    # Populations test matching coverage once per base, and thm-1.4 leaves
    # multigraphs out because a parallel copy of a matching covered graph is
    # removable, so no multigraph is minimal.
    simple = g.underlying_simple()
    covered = is_matching_covered(g)
    assert covered == is_matching_covered(simple)
    assert is_brick(g) == is_brick(simple)
    if covered:
        parallel = [e for ids in g.parallel_classes.values() if len(ids) > 1 for e in ids]
        assert all(is_removable_edge(g, e) for e in parallel)


def test_removable_classes_of_k16_without_enumerating_matchings():
    # K16 has 2,027,025 perfect matchings; listing them takes minutes.
    started = time.perf_counter()
    classes = removable_classes(complete_graph(16))
    assert len(classes) == 120
    assert time.perf_counter() - started < 10


def test_removable_edge_errors():
    with pytest.raises(NotMatchingCoveredError):
        is_removable_edge(path_graph(4), 0)
    k4 = complete_graph(4)
    for e in (-1, k4.m):
        with pytest.raises(EdgeOutOfRangeError):
            is_removable_edge(k4, e)


def test_long_cycle_is_matching_covered():
    # Deeper than the interpreter's recursion limit, if the search recursed.
    assert is_matching_covered(cycle_graph(3000))
