"""Matching routines against the backtracking oracle."""

import random

from hypothesis import given, settings

from matchcov import (
    Multigraph,
    enumerate_connected_graphs,
    enumerate_perfect_matchings,
    has_perfect_matching,
    matching_number,
    max_matching,
)
from matchcov.covered import _perfect_matching
from matchcov.zoo import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    prism_graph,
)
from conftest import brute_matching_number, brute_perfect_matchings, multigraphs


def _check_matching_is_valid(g, matching):
    seen = set()
    for e in matching.edge_ids:
        u, v = g.endpoints(e)
        assert u not in seen and v not in seen
        seen.add(u)
        seen.add(v)
    assert matching.covered == frozenset(seen)


def _check_max_matching(g):
    """max_matching and matching_number against the oracle; the kept
    perfect matching is None exactly when the maximum one is not perfect.
    Returns whether g has a perfect matching."""
    expect = brute_matching_number(g)
    assert matching_number(g) == expect
    m = max_matching(g)
    _check_matching_is_valid(g, m)
    assert len(m.edge_ids) == expect
    perfect = _perfect_matching(g) is not None
    assert perfect == (expect == g.n / 2)
    return perfect


def test_matching_number_exhaustive_small():
    sides = set()
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            sides.add((n % 2, _check_max_matching(g)))
    # odd orders, and even ones with and without a perfect matching
    assert sides == {(1, False), (0, False), (0, True)}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(multigraphs(8, even=False))
def test_max_matching_on_multigraphs(g):
    _check_max_matching(g)


def test_matching_number_random_n8():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.choice((7, 8))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    edges.append((u, v))
        g = Multigraph(n, edges)
        assert matching_number(g) == brute_matching_number(g)


def test_matching_with_parallel_edges():
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3), (1, 2)])
    assert matching_number(g) == 2
    m = max_matching(g)
    _check_matching_is_valid(g, m)


def test_named_graphs():
    assert matching_number(petersen_graph()) == brute_matching_number(petersen_graph())
    assert matching_number(petersen_graph()) == 5
    assert matching_number(path_graph(5)) == 2
    assert matching_number(cycle_graph(7)) == 3


def test_has_perfect_matching():
    assert has_perfect_matching(complete_graph(4))
    assert has_perfect_matching(cycle_graph(6))
    assert not has_perfect_matching(cycle_graph(5))
    assert not has_perfect_matching(path_graph(3))
    # even order alone is not enough: a star on 4 vertices has no PM
    assert not has_perfect_matching(Multigraph(4, [(0, 1), (0, 2), (0, 3)]))


def test_enumerate_perfect_matchings_matches_oracle(connected_simple_upto_6):
    for g in connected_simple_upto_6:
        if g.n % 2:
            continue
        expect = {pm for pm in brute_perfect_matchings(g)}
        got = [frozenset(m.edge_ids) for m in enumerate_perfect_matchings(g)]
        assert len(got) == len(set(got)), "duplicate matchings yielded"
        assert set(got) == expect


def test_enumerate_perfect_matchings_multigraph():
    # a doubled edge doubles the matchings through that pair
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)])
    got = [frozenset(m.edge_ids) for m in enumerate_perfect_matchings(g)]
    expect = set(brute_perfect_matchings(g))
    assert set(got) == expect
    assert len(got) == len(expect)


def test_perfect_matching_counts_for_named_graphs():
    for g, count in (
        (complete_graph(4), len(brute_perfect_matchings(complete_graph(4)))),
        (prism_graph(), len(brute_perfect_matchings(prism_graph()))),
        (complete_bipartite(3, 3), len(brute_perfect_matchings(complete_bipartite(3, 3)))),
    ):
        assert sum(1 for _ in enumerate_perfect_matchings(g)) == count
    # spot values derived from the oracle itself
    assert len(brute_perfect_matchings(complete_graph(4))) == 3
    assert len(brute_perfect_matchings(complete_bipartite(3, 3))) == 6
