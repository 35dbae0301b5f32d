"""Bipartite removability certificates and P-sets."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matchcov import (
    Multigraph,
    PSet,
    bipartition,
    enumerate_connected_graphs,
    is_matching_covered,
    is_removable_bipartite,
    is_removable_edge,
    minimum_P_set,
)
from matchcov import bipartite
from matchcov.bipartite import RemovabilityCertificate, _certificate_search, all_P_sets
from matchcov.campaigns import _bipartite_multigraphs, _sample_bipartite_mc, run_campaign
from matchcov.errors import NotBipartiteMCError
from matchcov.generate import multiplicity_classes
from matchcov.zoo import complete_bipartite, complete_graph, cycle_graph


def _bipartite_mc(n):
    for g in enumerate_connected_graphs(n, min_degree=2):
        if g.is_bipartite() and is_matching_covered(g):
            yield g


def test_bipartition():
    g = complete_bipartite(3, 3)
    a, b = bipartition(g)
    assert len(a) == len(b) == 3
    for e in range(g.m):
        u, v = g.endpoints(e)
        assert (u in a) != (v in a)


def test_bipartition_rejects_bad_input():
    with pytest.raises(NotBipartiteMCError):
        bipartition(complete_graph(4))
    # bipartite but not matching covered (odd order)
    with pytest.raises(NotBipartiteMCError):
        bipartition(complete_bipartite(2, 3))


def test_removability_agrees_with_direct_check():
    for n in (4, 6, 8):
        for g in _bipartite_mc(n):
            for e in range(g.m):
                verdict, cert = is_removable_bipartite(g, e)
                assert verdict == is_removable_edge(g, e)
                if verdict:
                    assert cert is None
                else:
                    assert cert is not None


def nested_certificate_search(g, e, a, b):
    """Every same-size pair (A1, B1) with u in A1 and v outside B1, A1 in
    (size, sorted) order and B1 sorted under it: the first that isolates
    uv and spans a matching covered subgraph."""
    u, v = g.endpoints(e)
    if u in b:
        u, v = v, u
    for ka in range(1, len(a)):
        for a1 in combinations(sorted(a), ka):
            if u not in a1:
                continue
            for b1 in combinations(sorted(b - {v}), ka):
                rest = b - set(b1)
                crossing = [
                    (x, y) for x, y in g.edges if (x in a1 and y in rest) or (y in a1 and x in rest)
                ]
                if crossing != [(min(u, v), max(u, v))] * g.multiplicity(u, v):
                    continue
                if is_matching_covered(g.induced(sorted(a1 + b1))):
                    return RemovabilityCertificate(frozenset(a1), frozenset(b1))
    return None


@st.composite
def pm_unions(draw):
    """Connected unions of 1 to 4 perfect matchings of a bipartite graph on
    up to 10 vertices, labels shuffled: bipartite matching covered
    multigraphs."""
    half = draw(st.integers(1, 5))
    label = draw(st.permutations(range(2 * half)))
    edges = []
    for _ in range(draw(st.integers(1, 4))):
        right = draw(st.permutations(range(half, 2 * half)))
        edges += [(label[x], label[y]) for x, y in zip(range(half), right)]
    g = Multigraph(2 * half, edges)
    assume(g.is_connected())
    return g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pm_unions())
def test_certificate_search_matches_nested_search(g):
    # B1 is forced to N(A1) - v; the search over every same-size B1 finds
    # the same first certificate, in both orientations.
    a, b = bipartition(g)
    for e in range(g.m):
        for x, y in ((a, b), (b, a)):
            assert _certificate_search(g, e, x, y) == nested_certificate_search(g, e, x, y)


def test_certificates_exist_in_both_orientations():
    # The lemma is symmetric in A and B, so `is_removable_bipartite` searches
    # with A1 in A only. On every edge of the bipartite matching covered
    # graphs to 8 vertices, and of lemma-2.16's multigraph slice (to 6
    # vertices, multiplicity 2), the search agrees with the nested oracle
    # either way round, and every non-removable edge has a certificate.
    graphs = [g for n in (4, 6, 8) for g in _bipartite_mc(n)]
    graphs += _bipartite_multigraphs(6, 2, min_n=2)
    non_removable = 0
    for g in graphs:
        a, b = bipartition(g)
        for e in range(g.m):
            removable = is_removable_edge(g, e)
            non_removable += not removable
            for x, y in ((a, b), (b, a)):
                cert = _certificate_search(g, e, x, y)
                assert cert == nested_certificate_search(g, e, x, y), (g.edges, e)
                assert removable or cert is not None, (g.edges, e)
    assert non_removable == 139 + 277  # simple graphs, then multigraphs


def test_a_miss_in_the_first_orientation_is_reported(monkeypatch):
    # A search that fails whenever A1 would lie in A stands in for a
    # counterexample to the lemma: no retry in the mirrored orientation may
    # hide it.
    search = bipartite._certificate_search

    def first_orientation_misses(g, e, a, b):
        return None if 0 in a else search(g, e, a, b)

    monkeypatch.setattr(bipartite, "_certificate_search", first_orientation_misses)
    rep = run_campaign("lemma-2.16", max_n=6, mult_n=4, samples=0)
    assert rep["summary"]["status"] == "fail"
    assert rep["counterexamples"]
    assert {c["failed"] for c in rep["counterexamples"]} == {"no certificate found"}


def test_certificate_contents():
    # non-removable edges carry an (A1, B1) witness with the documented shape
    for g in _bipartite_mc(6):
        a, b = bipartition(g)
        for e in range(g.m):
            verdict, cert = is_removable_bipartite(g, e)
            if verdict:
                continue
            u, v = g.endpoints(e)
            a1, b1 = cert.a1, cert.b1
            if u in b:
                u, v = v, u  # u on the A side
            # one endpoint inside A1, the other outside B1
            assert len(a1) == len(b1) and len(b1) >= 1
            side_a, side_b = (a, b) if a1 <= a else (b, a)
            assert a1 <= side_a and b1 <= side_b
            # e is the only edge from A1 to the rest of the B side
            crossing = [
                f
                for f in range(g.m)
                if (
                    (g.endpoints(f)[0] in a1 and g.endpoints(f)[1] in side_b - b1)
                    or (g.endpoints(f)[1] in a1 and g.endpoints(f)[0] in side_b - b1)
                )
            ]
            assert crossing == [e]


def test_k33_certificates():
    g = complete_bipartite(3, 3)
    for e in range(g.m):
        verdict, cert = is_removable_bipartite(g, e)
        assert verdict and cert is None


def test_rejects_nonbipartite_input():
    with pytest.raises(NotBipartiteMCError):
        is_removable_bipartite(complete_graph(4), 0)


def _single_crossing_directions(g, verts, a):
    out_a = 0
    in_b = 0
    for e in range(g.m):
        u, v = g.endpoints(e)
        if (u in verts) == (v in verts):
            continue
        inside = u if u in verts else v
        if inside in a:
            out_a += 1
        else:
            in_b += 1
    return out_a, in_b


def test_minimum_p_set():
    from itertools import combinations

    # K3,3 is too densely crossed for any single-crossing subset
    assert minimum_P_set(complete_bipartite(3, 3)) is None
    for g in (cycle_graph(4), cycle_graph(6)):
        ps = minimum_P_set(g)
        assert ps is not None
        a, b = bipartition(g)
        verts = ps.vertices
        assert len(verts & a) == len(verts & b), "P-sets are balanced"
        out_a, in_b = _single_crossing_directions(g, verts, a)
        assert (ps.out_of_a and out_a == 1) or (ps.into_b and in_b == 1)
        # minimality against brute force over all balanced proper subsets
        smallest = None
        for k in range(1, g.n // 2):
            for xa in combinations(sorted(a), k):
                for xb in combinations(sorted(b), k):
                    oa, ib = _single_crossing_directions(g, set(xa + xb), a)
                    if oa == 1 or ib == 1:
                        smallest = 2 * k
                        break
                if smallest:
                    break
            if smallest:
                break
        assert len(verts) == smallest


def _p_sets_by_definition(g):
    """Balanced proper subsets with one edge out of their A-side or one
    into their B-side, in (size, sorted vertices) order."""
    a, _ = bipartition(g)
    out = []
    for size in range(2, g.n, 2):
        for x in combinations(range(g.n), size):
            verts = set(x)
            if 2 * len(verts & a) != size:
                continue
            out_a, in_b = _single_crossing_directions(g, verts, a)
            if out_a == 1 or in_b == 1:
                out.append(PSet(frozenset(x), out_a == 1, in_b == 1))
    return out


def test_p_sets_match_definition():
    graphs = [g for n in (2, 4, 6, 8) for g in _bipartite_mc(n)]
    # multigraphs: every multiplicity class (multiplicity <= 3) of the bases
    # with n <= 6, then seeded samples past the exhaustive range
    graphs += [h for g in graphs if g.n <= 6 for h in multiplicity_classes(g, 3) if h.m > g.m]
    graphs += _sample_bipartite_mc(10, 20, 0) + _sample_bipartite_mc(12, 20, 0)
    with_p_sets = set()
    for g in graphs:
        expect = _p_sets_by_definition(g)
        assert list(all_P_sets(g)) == expect, g.edges
        assert minimum_P_set(g) == (expect[0] if expect else None)
        with_p_sets.add(bool(expect))
    assert with_p_sets == {True, False}
