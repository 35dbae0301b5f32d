"""Matching covered graphs and removable classes.

The K4 / prism / W5 / W7 class counts are the load-bearing golden facts:
K4 and the prism have no removable edges and exactly three removable
doubletons; odd wheels have exactly their spokes removable and nothing
else, with every rim edge non-removable.
"""

from itertools import combinations

from matchcov import (
    Doubleton,
    Multigraph,
    Single,
    has_two_nonadjacent_removable_edges,
    is_bicritical,
    is_brace,
    is_brick,
    is_matching_covered,
    is_minimal_mc,
    is_near_bipartite,
    is_removable_edge,
    removable_classes,
    removable_doubletons,
    removable_edges,
    simple_wheel,
    vertex_connectivity,
)
from matchcov.zoo import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    prism_graph,
    star_graph,
)
from conftest import brute_perfect_matchings, mc_by_definition


def test_matching_covered_against_definition(connected_simple_upto_6):
    for g in connected_simple_upto_6:
        assert is_matching_covered(g) == mc_by_definition(g)


def test_matching_covered_named():
    assert is_matching_covered(complete_graph(4))
    assert is_matching_covered(cycle_graph(6))
    assert is_matching_covered(complete_bipartite(3, 3))
    assert is_matching_covered(petersen_graph())
    assert not is_matching_covered(path_graph(4))  # middle edge in no PM
    assert not is_matching_covered(cycle_graph(5))
    assert not is_matching_covered(star_graph(3))


def test_removable_edge_against_definition():
    pool = [complete_graph(4), prism_graph(), cycle_graph(6), complete_bipartite(3, 3)]
    pool.append(simple_wheel(5)[0])
    for g in pool:
        for e in range(g.m):
            assert is_removable_edge(g, e) == mc_by_definition(g.delete_edges([e]))


def test_removable_doubletons_against_definition():
    for g in (complete_graph(4), prism_graph(), simple_wheel(5)[0]):
        singles = set(removable_edges(g))
        expect = set()
        for e, f in combinations(range(g.m), 2):
            if e in singles or f in singles:
                continue
            if mc_by_definition(g.delete_edges([e, f])):
                expect.add((e, f))
        assert set(removable_doubletons(g)) == expect


def test_golden_class_counts():
    k4 = complete_graph(4)
    assert len(removable_edges(k4)) == 0
    assert len(removable_doubletons(k4)) == 3

    prism = prism_graph()
    assert len(removable_edges(prism)) == 0
    assert len(removable_doubletons(prism)) == 3

    for k in (5, 7):
        wheel, hub = simple_wheel(k)
        singles = removable_edges(wheel)
        assert len(singles) == k
        assert len(removable_doubletons(wheel)) == 0
        for e in singles:
            assert hub in wheel.endpoints(e), "every removable edge is a spoke"
        for e in range(wheel.m):
            if hub not in wheel.endpoints(e):
                assert not is_removable_edge(wheel, e), "rim edges are not removable"


def test_removable_classes_of_the_50_vertex_prism():
    # C25 x K2, at an order where a perfect-matching search exponential in
    # n does not finish. Unlike the triangular prism, every rung is
    # removable here, and each rim edge pairs with its twin on the other rim.
    k = 25
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    g = Multigraph(2 * k, rims + [(i, k + i) for i in range(k)])
    singles = tuple(Single(e) for e in range(2 * k, 3 * k))
    doubletons = tuple(Doubleton((i, k + i)) for i in range(k))
    assert removable_classes(g) == singles + doubletons


def test_removable_classes_structure():
    k4 = complete_graph(4)
    classes = removable_classes(k4)
    assert all(isinstance(c, Doubleton) for c in classes)
    assert len(classes) == 3
    w5, _ = simple_wheel(5)
    classes = removable_classes(w5)
    assert all(isinstance(c, Single) for c in classes)
    assert {c.edge for c in classes} == set(removable_edges(w5))


def test_minimal_matching_covered():
    # no removable edge at all
    assert is_minimal_mc(cycle_graph(6))
    assert is_minimal_mc(complete_graph(4))
    assert is_minimal_mc(prism_graph())
    w5, _ = simple_wheel(5)
    assert not is_minimal_mc(w5)
    assert not is_minimal_mc(complete_bipartite(3, 3))


def test_bicritical_against_definition(connected_simple_upto_6):
    # the library pins bicriticality to n >= 4 (K2 is a degenerate corner)
    for g in connected_simple_upto_6:
        if g.n < 4 or g.n % 2:
            continue
        expect = all(
            bool(brute_perfect_matchings(g.induced(sorted(set(range(g.n)) - {u, v}))))
            for u, v in combinations(range(g.n), 2)
        )
        assert is_bicritical(g) == expect


def test_brick_recognition():
    for g, expect in (
        (complete_graph(4), True),
        (prism_graph(), True),
        (simple_wheel(5)[0], True),
        (petersen_graph(), True),
        (cycle_graph(6), False),  # bipartite
        (complete_bipartite(3, 3), False),
        (simple_wheel(7)[0], True),
    ):
        assert is_brick(g) == expect
    for g in (complete_graph(4), prism_graph(), petersen_graph()):
        assert vertex_connectivity(g) >= 3 and is_bicritical(g)


def test_brace_recognition():
    assert is_brace(complete_bipartite(3, 3))
    assert is_brace(cycle_graph(4))
    assert not is_brace(complete_graph(4))  # not bipartite
    assert not is_brace(cycle_graph(6))  # C6 has a nontrivial tight cut


def test_near_bipartite():
    # deleting one removable doubleton of K4 leaves C4
    hit = is_near_bipartite(complete_graph(4))
    assert hit is not None
    e, f = hit
    rest = complete_graph(4).delete_edges([e, f])
    assert rest.is_bipartite() and is_matching_covered(rest)
    assert is_near_bipartite(cycle_graph(6)) is None  # already bipartite
    w5, _ = simple_wheel(5)
    assert is_near_bipartite(w5) is None  # no removable doubletons at all
    assert is_near_bipartite(prism_graph()) is not None


def test_two_nonadjacent_removable_edges():
    def oracle(g):
        singles = removable_edges(g)
        for e, f in combinations(singles, 2):
            if not set(g.endpoints(e)) & set(g.endpoints(f)):
                return True
        return False

    for g in (
        complete_graph(4),
        prism_graph(),
        simple_wheel(5)[0],
        complete_bipartite(3, 3),
        petersen_graph(),
    ):
        assert has_two_nonadjacent_removable_edges(g) == oracle(g)
    # all of W5's removable edges share the hub
    assert not has_two_nonadjacent_removable_edges(simple_wheel(5)[0])
    assert has_two_nonadjacent_removable_edges(complete_bipartite(3, 3))
