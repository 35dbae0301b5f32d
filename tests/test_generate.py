"""Exhaustive generators against labeled brute-force enumeration."""

import pytest

from matchcov import (
    automorphisms,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_multigraphs,
    is_brick,
    multiplicity_sweep,
    new_multigraph,
)
from matchcov.errors import BadSpecError
from matchcov.generate import multiplicity_classes
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
    # Canonical-form dedup of the labelled sweep is the reference.
    cases = [(base, 2) for n in range(1, 6) for base in enumerate_connected_graphs(n)]
    for base, bound in cases + [(complete_graph(4), 3), (cycle_graph(4), 3)]:
        first = {}
        for g in multiplicity_sweep(base, bound):
            first.setdefault(canonical_form(g), g.edges)
        got = [g.edges for g in multiplicity_classes(base, bound)]
        assert got == list(first.values())


def _cycle_count(perm):
    seen = set()
    count = 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return count


def test_multiplicity_classes_count_orbits_by_burnside():
    # Burnside: the orbits number the mean count of vectors that a group
    # element fixes. A vector is fixed exactly when it is constant on each
    # cycle of the element's edge permutation: mult_bound ** cycles.
    total = 0
    for base in enumerate_connected_graphs(6, min_degree=3):
        if not is_brick(base):
            continue
        position = {pair: e for e, pair in enumerate(base.edges)}
        auts = automorphisms(base)
        fixed = sum(
            2 ** _cycle_count([position[tuple(sorted((p[u], p[v])))] for u, v in base.edges])
            for p in auts
        )
        kept = sum(1 for _ in multiplicity_classes(base, 2))
        assert fixed == kept * len(auts)
        total += kept
    assert total == 7738


def test_multiplicity_classes_refuse_bad_input():
    with pytest.raises(BadSpecError):
        list(multiplicity_classes(cycle_graph(4), 0))
    with pytest.raises(BadSpecError):
        list(multiplicity_classes(new_multigraph(2, [(0, 1), (0, 1)]), 2))
