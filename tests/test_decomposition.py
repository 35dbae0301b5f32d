"""Tight cut decomposition and solidity."""

from matchcov import (
    brick_count,
    canonical_form,
    decomposition_multiset,
    enumerate_connected_graphs,
    is_brace,
    is_brick,
    is_matching_covered,
    is_near_brick,
    is_robust,
    is_solid,
    tight_cut_decomposition,
)
from matchcov.zoo import complete_bipartite, complete_graph, cycle_graph, petersen_graph, prism_graph
from matchcov import simple_wheel


def test_c6_splits_into_two_squares():
    comps = [h for h, _ in tight_cut_decomposition(cycle_graph(6))]
    assert len(comps) == 2
    c4 = canonical_form(cycle_graph(4))
    assert all(canonical_form(h.underlying_simple()) == c4 for h in comps)


def test_bricks_and_braces_are_atomic():
    for g in (complete_graph(4), prism_graph(), petersen_graph(), complete_bipartite(3, 3)):
        components = tight_cut_decomposition(g)
        assert len(components) == 1
        assert canonical_form(components[0][0]) == canonical_form(g)


def test_every_component_is_brick_or_brace():
    for n in (4, 6, 8):
        for g in enumerate_connected_graphs(n, min_degree=2):
            if not is_matching_covered(g):
                continue
            for h, _ in tight_cut_decomposition(g):
                assert is_brick(h) or is_brace(h), (g.edges, h.edges)


def test_vertex_bookkeeping():
    # each split makes two graphs with n1 + n2 = n + 2, and one more component
    for g in (cycle_graph(6), cycle_graph(8)):
        components = tight_cut_decomposition(g)
        total = sum(h.n for h, _ in components)
        cuts = len(components) - 1
        assert cuts > 0
        assert total == g.n + 2 * cuts


def test_brick_count():
    assert brick_count(complete_graph(4)) == 1
    assert brick_count(petersen_graph()) == 1
    assert brick_count(cycle_graph(6)) == 0  # two braces
    assert brick_count(complete_bipartite(3, 3)) == 0
    assert is_near_brick(complete_graph(4))
    assert not is_near_brick(cycle_graph(6))


def test_decomposition_multiset_seed_stability():
    for g in (cycle_graph(6), cycle_graph(8)):
        base = decomposition_multiset(g, seed=0)
        for s in range(1, 6):
            assert decomposition_multiset(g, seed=s) == base
        assert decomposition_multiset(g) == base


def test_six_vertex_solid_bricks():
    bricks = [g for g in enumerate_connected_graphs(6, min_degree=3) if is_brick(g)]
    assert len(bricks) == 13
    solids = [g for g in bricks if is_solid(g)]
    assert len(solids) == 1
    w5, _ = simple_wheel(5)
    assert canonical_form(solids[0]) == canonical_form(w5)


def test_nonsolid_six_vertex_bricks_have_robust_cuts():
    # every nonsolid brick has a robust cut, and one of the contractions
    # along some robust cut is solid
    from itertools import combinations

    def robust_shores(g):
        for size in range(3, g.n - 2, 2):
            for rest in combinations(range(1, g.n), size - 1):
                shore = (0,) + rest
                if is_robust(g, shore):
                    yield shore
                comp = tuple(sorted(set(range(g.n)) - set(shore)))
                if is_robust(g, comp):
                    yield comp

    for g in enumerate_connected_graphs(6, min_degree=3):
        if not is_brick(g) or is_solid(g):
            continue
        shores = list(robust_shores(g))
        assert shores, f"nonsolid brick without robust cut: {g.edges}"
        witnessed = False
        for shore in shores:
            inner = g.contract(sorted(set(range(g.n)) - set(shore)))
            outer = g.contract(sorted(shore))
            if is_solid(inner) or is_solid(outer):
                witnessed = True
                break
        assert witnessed, f"no robust cut with a solid contraction: {g.edges}"


def test_odd_wheels_are_solid():
    for k in (5, 7):
        wheel, _ = simple_wheel(k)
        assert is_solid(wheel)
    assert not is_solid(petersen_graph())
