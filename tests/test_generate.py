"""Exhaustive generators against labeled brute-force enumeration."""

import pytest

from matchcov import (
    Multigraph,
    automorphisms,
    canonical_form,
    enumerate_connected_graphs,
    enumerate_multigraphs,
    is_brick,
    multiplicity_sweep,
)
from matchcov import canon, generate
from matchcov.errors import BadSpecError
from matchcov.generate import clear_enumeration_cache, multiplicity_classes
from matchcov.zoo import complete_graph, cycle_graph
from conftest import labeled_connected_multigraphs, labeled_connected_simple, reference_connected_level


def test_connected_simple_counts_match_labeled_space():
    for n in range(1, 7):
        expect = {canonical_form(g) for g in labeled_connected_simple(n)}
        got = [canonical_form(g) for g in enumerate_connected_graphs(n)]
        assert len(got) == len(set(got)), f"duplicates at n={n}"
        assert set(got) == expect, f"wrong class set at n={n}"


def test_connected_simple_known_sizes():
    # OEIS A001349; n <= 6 also re-derived by the labeled sweep above. n = 8
    # is the most symmetric level the attach-orbit pruning meets.
    clear_enumeration_cache()
    sizes = [sum(1 for _ in enumerate_connected_graphs(n)) for n in range(1, 9)]
    clear_enumeration_cache()
    assert sizes == [1, 1, 2, 6, 21, 112, 853, 11117]


def test_levels_match_twin_pruned_reference():
    # Same graphs, edge lists and order as the enumerator that tried every
    # attach set but twin-swapped ones: the orbit rule keeps every
    # first-seen representative.
    clear_enumeration_cache()
    cases = [(t, d) for t in range(1, 8) for d in (0, 2, 3)] + [(8, 3)]
    for t, d in cases:
        got = [g.edges for g, _ in generate._connected_level(t, d, t)]
        assert got == [g.edges for g in reference_connected_level(t, d, t)], (t, d)
    clear_enumeration_cache()
    reference_connected_level.cache_clear()


def test_level_generators_are_the_graphs_own():
    # A child labelled from its parent's search input gets the generators
    # of its own graph's search, and each one maps the edge set onto itself.
    clear_enumeration_cache()
    for g, gens in generate._connected_level(7, 0, 7):
        assert set(gens) == set(canon._record(g)[2])
        for p in gens:
            assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(g.edges)
    clear_enumeration_cache()


def test_labellings_per_cold_level_pinned(monkeypatch):
    # Core labellings in a cold _connected_level(8, 3, 8): 23,471 when every
    # attach set but twin-swapped ones was labelled, 18,584 with one mask per
    # orbit of the parent's automorphism group.
    calls = []
    search = generate._search

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(generate, "_search", counted)
    clear_enumeration_cache()
    assert len(generate._connected_level(8, 3, 8)) == 2589
    clear_enumeration_cache()
    assert len(calls) == 18584


def test_orbit_skips_keep_the_least_mask_of_each_orbit():
    # The cycle 0-1-2-3: rotations and reflections act on its 15 attach sets.
    rotate, reflect = (1, 2, 3, 0), (0, 3, 2, 1)
    skip = generate._orbit_skips((rotate, reflect), 4)
    kept = [m for m in range(1, 16) if not skip[m]]
    assert kept == [0b0001, 0b0011, 0b0101, 0b0111, 0b1111]
    assert not any(generate._orbit_skips((), 4))


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

    for mults in product((1, 2), repeat=len(pairs)):
        edges = []
        for (u, v), c in zip(pairs, mults):
            edges.extend([(u, v)] * c)
        seen.add(canonical_form(Multigraph(4, edges)))
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
        list(multiplicity_classes(Multigraph(2, [(0, 1), (0, 1)]), 2))
