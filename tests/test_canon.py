"""Canonical forms, automorphisms, orbits against permutation oracles."""

import gc
import random
from itertools import combinations, permutations
from math import factorial

import pytest

from matchcov import (
    Multigraph,
    automorphisms,
    canonical_form,
    canonical_labeling,
    enumerate_connected_graphs,
    is_isomorphic,
    vertex_orbits,
)
from matchcov import canon
from matchcov.canon import _packed, _rows, _search, _start, _twins
from matchcov.errors import BoundExceededError
from matchcov.zoo import complete_bipartite, complete_graph, cycle_graph, path_graph, petersen_graph, star_graph
from conftest import (
    naive_isomorphic,
    reference_automorphisms,
    reference_canonical_labeling,
    reference_vertex_orbits,
)


def test_canonical_form_invariant_under_relabeling(connected_simple_upto_6):
    rng = random.Random(5)
    for g in connected_simple_upto_6:
        base = canonical_form(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabeled(tuple(perm))) == base


def test_canonical_form_separates_up_to_n5():
    pool = []
    for n in range(1, 6):
        pool.extend(enumerate_connected_graphs(n))
    for g, h in combinations(pool, 2):
        same_canon = canonical_form(g) == canonical_form(h)
        assert same_canon == naive_isomorphic(g, h)


def test_canonical_labeling_matches_reference_kernel_up_to_n7():
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            assert canonical_labeling(g) == reference_canonical_labeling(g)


def test_twins_adjacent_or_not():
    # 0 and 1 are adjacent twins, 2 and 3 non-adjacent ones; 0 and 2 differ.
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)] + [(0, 1)] * 2)
    rows = _rows(g)
    assert _twins(rows, 0, 1) and _twins(rows, 1, 0)
    assert _twins(rows, 2, 3)
    assert not _twins(rows, 0, 2)


def test_canonical_form_sees_multiplicity():
    c4 = cycle_graph(4)
    doubled = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    assert canonical_form(c4) != canonical_form(doubled)
    # relabeling the doubled graph keeps its form
    assert canonical_form(doubled.relabeled((2, 3, 0, 1))) == canonical_form(doubled)


def test_canonical_labeling_is_consistent():
    g = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    perm, form = canonical_labeling(g)
    assert sorted(perm) == list(range(5))
    assert form == canonical_form(g)
    assert canonical_form(g.relabeled(perm)) == form


def test_automorphisms_are_automorphisms():
    for g in (complete_graph(4), cycle_graph(5), path_graph(4), star_graph(3)):
        pairs = {}
        for e in range(g.m):
            u, v = g.endpoints(e)
            key = (min(u, v), max(u, v))
            pairs[key] = pairs.get(key, 0) + 1
        auts = automorphisms(g)
        assert tuple(range(g.n)) in auts
        assert len(set(auts)) == len(auts)
        for perm in auts:
            mapped = {}
            for (u, v), c in pairs.items():
                a, b = perm[u], perm[v]
                mapped[(min(a, b), max(a, b))] = c
            assert mapped == pairs


def test_automorphism_group_order_against_brute_force():
    for g in (complete_graph(4), cycle_graph(4), path_graph(3), star_graph(4)):
        pairs = {}
        for e in range(g.m):
            u, v = g.endpoints(e)
            key = (min(u, v), max(u, v))
            pairs[key] = pairs.get(key, 0) + 1
        count = 0
        for perm in permutations(range(g.n)):
            mapped = {}
            for (u, v), c in pairs.items():
                a, b = perm[u], perm[v]
                mapped[(min(a, b), max(a, b))] = c
            if mapped == pairs:
                count += 1
        assert len(automorphisms(g)) == count


def test_vertex_orbits():
    orbits = {frozenset(o) for o in vertex_orbits(star_graph(4))}
    assert orbits == {frozenset({0}), frozenset({1, 2, 3, 4})}
    assert {frozenset(o) for o in vertex_orbits(complete_graph(4))} == {frozenset(range(4))}
    # orbits partition the vertex set
    g = Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    seen = set()
    for o in vertex_orbits(g):
        assert not (set(o) & seen)
        seen |= set(o)
    assert seen == set(range(5))


def test_automorphisms_and_orbits_match_reference_up_to_n7():
    # Same lists in the same order, the empty graph included.
    pool = [Multigraph(0, [])]
    for n in range(1, 8):
        pool.extend(enumerate_connected_graphs(n))
    for g in pool:
        assert automorphisms(g) == reference_automorphisms(g), g.edges
        assert vertex_orbits(g) == reference_vertex_orbits(g), g.edges


def _random_cubic(n: int, seed: int) -> Multigraph:
    """A connected simple cubic graph from the seeded pairing model."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            g = Multigraph(n, sorted(edges))
            if g.is_connected():
                return g


def test_automorphisms_match_reference_on_random_cubic_graph():
    # Refinement leaves a random cubic graph almost discrete; a backtrack
    # that refines nothing beyond the initial colors is exponential here.
    g = _random_cubic(16, 16)
    assert automorphisms(g) == reference_automorphisms(g)
    assert vertex_orbits(g) == reference_vertex_orbits(g)


def test_is_isomorphic_agrees_with_canon():
    g = cycle_graph(6)
    h = g.relabeled((3, 1, 5, 0, 4, 2))
    assert is_isomorphic(g, h)
    assert not is_isomorphic(g, path_graph(6))
    # multigraphs: multiplicity patterns must match
    a = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    b = Multigraph(4, [(1, 2), (1, 2), (2, 3), (3, 0), (0, 1)])
    assert is_isomorphic(a, b)
    c = Multigraph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3)])
    assert not is_isomorphic(a, c)


def _weighted_c4(mults):
    pairs = ((0, 1), (1, 2), (2, 3), (3, 0))
    return Multigraph(4, [p for p, cnt in zip(pairs, mults) for _ in range(cnt)])


def test_canonical_form_keeps_multiplicities_above_255():
    uneven = _weighted_c4((300, 400, 300, 400))
    even = _weighted_c4((350, 350, 350, 350))
    assert canonical_form(uneven) != canonical_form(even)
    assert not is_isomorphic(uneven, even)
    turned = uneven.relabeled((1, 2, 3, 0))
    assert canonical_form(turned) == canonical_form(uneven)
    assert is_isomorphic(turned, uneven)


def test_canonical_form_refuses_more_than_255_vertices():
    with pytest.raises(BoundExceededError):
        canonical_form(Multigraph(256, [(0, 1)]))


def test_search_stops_at_a_known_leaf():
    # A relabelled copy of a kept graph hits its form and returns nothing; a
    # graph isomorphic to no kept one runs to the end as without known.
    g = petersen_graph()
    kept = _search(*_start(g))
    known = {_packed(kept[1]): g}
    copy = g.relabeled((3, 7, 1, 9, 0, 5, 8, 2, 6, 4))
    assert _search(*_start(copy), known) is None
    other = Multigraph(10, g.edges[:-1] + ((0, 2),))
    assert not is_isomorphic(other, g)
    assert _search(*_start(other), known) == _search(*_start(other))
    assert _search(*_start(g), {}) == kept


def test_search_leaves_no_reference_cycle():
    # The recursive closure drops its reference to itself, so neither a
    # full search nor one stopped at a known leaf leaves its lists to the
    # cycle collector.
    g = petersen_graph()
    known = {_packed(_search(*_start(g))[1])}
    gc.collect()
    gc.disable()
    try:
        _search(*_start(g))
        _search(*_start(g.relabeled((1, 0, 2, 3, 4, 5, 6, 7, 8, 9))), known)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _multiplied(g: Multigraph, cnt: int) -> Multigraph:
    return Multigraph(g.n, [e for e in g.edges for _ in range(cnt)])


def _twin_corpus():
    """Graphs whose cells are mostly mutual twins, with the order of their
    automorphism group: complete, complete bipartite, stars, edgeless
    graphs, the same with every edge repeated, and stars whose spokes come
    in two multiplicities."""
    for n in range(1, 8):
        yield complete_graph(n), factorial(n)
        yield Multigraph(n, []), factorial(n)
    for a in range(1, 5):
        for b in range(a, 7 - a + 1):
            yield complete_bipartite(a, b), factorial(a) * factorial(b) * (2 if a == b else 1)
    for leaves in range(2, 7):
        yield star_graph(leaves), factorial(leaves)
    for thin in range(1, 4):
        for heavy in range(1, 4):
            edges = [(0, v) for v in range(1, thin + 1)] + [(0, v) for v in range(thin + 1, thin + heavy + 1)] * 2
            yield Multigraph(thin + heavy + 1, edges), factorial(thin) * factorial(heavy)


def test_twin_cells_match_reference_kernel():
    # One-step twin splits give the old kernel's labelling and form, and
    # the swaps recorded for them generate the whole group.
    for g, order in _twin_corpus():
        for h in (g, _multiplied(g, 2), _multiplied(g, 3)):
            assert canonical_labeling(h) == reference_canonical_labeling(h), h.edges
            auts = automorphisms(h)
            assert len(auts) == order, h.edges
            assert auts == reference_automorphisms(h), h.edges
    for n in (12, 20):
        for h in (complete_graph(n), Multigraph(n, []), star_graph(n - 1), complete_bipartite(n // 2, n // 2)):
            assert canonical_labeling(h) == reference_canonical_labeling(h), h.edges
            assert canonical_labeling(_multiplied(h, 2)) == reference_canonical_labeling(_multiplied(h, 2))


def test_edgeless_graph_takes_one_refinement(monkeypatch):
    # The 255 mutual twins are split in one step: one refinement round, not
    # one per vertex; the labelling is the identity and the form is n alone,
    # as the search that split them one by one gave.
    calls = []
    refine = canon._equitable

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(canon, "_equitable", counted)
    g = Multigraph(255, [])
    assert canonical_labeling(g) == (tuple(range(255)), bytes([255]))
    assert len(calls) == 1
