"""Exhaustive generators against labeled brute-force enumeration."""

from matchcov import (
    canonical_form,
    enumerate_connected_graphs,
    enumerate_multigraphs,
    multiplicity_sweep,
)
from matchcov.zoo import complete_graph, cycle_graph
from conftest import labeled_connected_multigraphs, labeled_connected_simple


def test_connected_simple_counts_match_labeled_space():
    for n in range(1, 7):
        expect = {canonical_form(g) for g in labeled_connected_simple(n)}
        got = [canonical_form(g) for g in enumerate_connected_graphs(n)]
        assert len(got) == len(set(got)), f"duplicates at n={n}"
        assert set(got) == expect, f"wrong class set at n={n}"


def test_connected_simple_known_sizes():
    # OEIS A001349; n <= 6 also re-derived by the labeled sweep above
    sizes = [sum(1 for _ in enumerate_connected_graphs(n)) for n in range(1, 8)]
    assert sizes == [1, 1, 2, 6, 21, 112, 853]


def test_min_degree_filter():
    whole = list(enumerate_connected_graphs(6))
    filtered = {canonical_form(g) for g in enumerate_connected_graphs(6, min_degree=3)}
    expect = {canonical_form(g) for g in whole if g.min_degree() >= 3}
    assert filtered == expect
    for g in enumerate_connected_graphs(6, min_degree=3):
        assert g.min_degree() >= 3


def test_multigraph_enumeration_matches_labeled_space():
    for n, bound in ((2, 3), (3, 2), (4, 2)):
        expect = {canonical_form(g) for g in labeled_connected_multigraphs(n, bound)}
        got = [canonical_form(g) for g in enumerate_multigraphs(n, bound)]
        assert len(got) == len(set(got)), f"duplicates at n={n}"
        assert set(got) == expect, f"wrong class set at n={n} bound={bound}"


def test_multiplicity_sweep_on_k4():
    # oracle: label each K4 edge with multiplicity 1..2, dedup by canon
    seen = set()
    base = complete_graph(4)
    pairs = [base.endpoints(e) for e in range(base.m)]
    from itertools import product

    from matchcov import new_multigraph

    for mults in product((1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), c in zip(pairs, mults):
            edges.extend([(u, v)] * c)
        seen.add(canonical_form(new_multigraph(4, edges)))
    # the sweep is a labeled enumeration: one output per multiplicity vector
    got = [canonical_form(g) for g in multiplicity_sweep(base, 2)]
    assert len(got) == 2 ** base.m
    assert set(got) == seen


def test_multiplicity_sweep_includes_base():
    base = cycle_graph(4)
    forms = {canonical_form(g) for g in multiplicity_sweep(base, 2)}
    assert canonical_form(base) in forms
    for g in multiplicity_sweep(base, 2):
        assert g.underlying_simple().m == base.m
        assert max(g.multiplicity(*g.endpoints(e)) for e in range(g.m)) <= 2


def test_multiplicity_classes_keep_first_sweep_member_per_class():
    from matchcov.generate import multiplicity_classes

    for base in (complete_graph(4), cycle_graph(4)):
        first = {}
        for g in multiplicity_sweep(base, 3):
            first.setdefault(canonical_form(g), g.edges)
        got = [g.edges for g in multiplicity_classes(base, 3)]
        assert got == list(first.values())
