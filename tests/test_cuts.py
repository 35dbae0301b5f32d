"""Edge cuts, tightness, barriers, 2-separations."""

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, given, settings

from matchcov import (
    Multigraph,
    barriers,
    enumerate_connected_graphs,
    is_brace,
    is_matching_covered,
    is_robust,
    is_separating,
    is_solid,
    is_tight,
    maximal_barriers,
    two_separations,
)
from matchcov.covered import pm_table
from matchcov.cuts import (
    _odd_shores,
    _shore_block,
    _shores_in,
    _shores_of_size,
    contractions,
    cut_shore_sets,
)
from matchcov.decomposition import nontrivial_tight_shores
from matchcov.errors import EmptyShoreError
from matchcov.zoo import complete_graph, cycle_graph, petersen_graph, prism_graph
from conftest import brute_perfect_matchings, multigraphs, separating_by_pms, tight_by_definition


def _proper_shores(n):
    for size in range(1, n):
        yield from combinations(range(n), size)


def test_cuts_reject_degenerate_shores():
    g = cycle_graph(4)
    for shore in ([], range(4)):
        with pytest.raises(EmptyShoreError):
            is_tight(g, shore)
        with pytest.raises(EmptyShoreError):
            contractions(g, shore)


def test_tight_against_definition(connected_simple_upto_6):
    for g in connected_simple_upto_6:
        if not is_matching_covered(g) or g.n < 4:
            continue
        pms = brute_perfect_matchings(g)
        for shore in _proper_shores(g.n):
            assert is_tight(g, shore) == tight_by_definition(g, shore, pms)


def test_single_vertex_cuts_are_tight():
    for g in (complete_graph(4), prism_graph(), cycle_graph(6), petersen_graph()):
        for v in range(g.n):
            assert is_tight(g, [v])


def test_c6_has_nontrivial_tight_cut():
    g = cycle_graph(6)
    assert is_tight(g, [0, 1, 2])
    assert not is_tight(g, [0, 1])  # odd boundary parity never tight
    assert is_separating(g, [0, 1, 2])
    # tight cuts are never robust
    assert not is_robust(g, [0, 1, 2])


def test_bricks_have_only_trivial_tight_cuts():
    for g in (complete_graph(4), prism_graph(), petersen_graph()):
        for shore in _proper_shores(g.n):
            if len(shore) == 1 or len(shore) == g.n - 1:
                continue
            assert not is_tight(g, shore), f"nontrivial tight cut {shore}"


def test_barriers_against_definition(connected_simple_upto_6):
    def odd_components(g, removed):
        rest = sorted(set(range(g.n)) - set(removed))
        sub = g.induced(rest)
        comps = []
        seen = set()
        for v in range(sub.n):
            if v in seen:
                continue
            mask = sub.component_mask(v)
            comp = {i for i in range(sub.n) if mask >> i & 1}
            seen |= comp
            comps.append(comp)
        return sum(1 for c in comps if len(c) % 2)

    for g in connected_simple_upto_6:
        if not is_matching_covered(g) or g.n < 4:
            continue
        expect = set()
        for size in range(1, g.n // 2 + 1):
            for cand in combinations(range(g.n), size):
                if odd_components(g, cand) == len(cand):
                    expect.add(frozenset(cand))
        got = {b.vertices for b in barriers(g)}
        assert got == expect


def test_maximal_barriers_are_maximal():
    for g in (complete_graph(4), prism_graph(), cycle_graph(6)):
        all_b = {b.vertices for b in barriers(g)}
        maximal = {b.vertices for b in maximal_barriers(g)}
        assert maximal <= all_b
        for b in maximal:
            assert not any(b < other for other in all_b)
        for b in all_b:
            assert any(b <= other for other in maximal)


def test_maximal_barriers_of_mc_graphs_are_independent(connected_simple_upto_6):
    for g in connected_simple_upto_6:
        if not is_matching_covered(g) or g.n < 4:
            continue
        for b in maximal_barriers(g):
            verts = sorted(b.vertices)
            assert g.induced(verts).m == 0, f"dependent maximal barrier {verts}"


def test_two_separations():
    assert two_separations(prism_graph()) == ()  # 3-connected
    got = two_separations(cycle_graph(6))
    assert got, "C6 has 2-separations"
    for pair in got:
        assert len(pair) == 2
        rest = sorted(set(range(6)) - set(pair))
        sub = cycle_graph(6).induced(rest)
        # all components even
        seen = set()
        for v in range(sub.n):
            if v in seen:
                continue
            mask = sub.component_mask(v)
            comp = {i for i in range(sub.n) if mask >> i & 1}
            seen |= comp
            assert len(comp) % 2 == 0


def test_separating_cut_in_c6():
    g = cycle_graph(6)
    # both shore contractions of {0,1,2} are squares, hence matching covered
    assert is_separating(g, [0, 1, 2])
    h = g.contract([0, 1, 2])
    assert h.n == 4 and is_matching_covered(h)


def test_shore_blocks_match_odd_shores():
    for n in range(1, 15):
        shores = list(_odd_shores(n))
        blocks = [list(_shores_of_size(n, size)) for size in range(3, n - 2, 2)]
        assert shores == sorted(shores, key=lambda x: (len(x), x))
        assert shores == [x for block in blocks for x in block]
        for block in blocks:
            member = _shore_block(n, len(block[0]))
            assert len(member) == n
            for v in range(n):
                assert member[v] == sum(1 << i for i, x in enumerate(block) if v in x), (n, v)
    assert len(shores) == 4082


def check_shore_sets(g):
    """The folds over the nontrivial odd shores of each size against
    brute-force verdicts per shore, and what is read from them; returns
    (solid, brace)."""
    pms = brute_perfect_matchings(g)
    sets = list(cut_shore_sets(g))
    assert [size for size, _t, _s in sets] == list(range(3, g.n - 2, 2))
    tight_list = []
    solid = True
    for size, tight, separating in sets:
        shores = list(_shores_of_size(g.n, size))
        assert tight >> len(shores) == separating >> len(shores) == 0
        for i, x in enumerate(shores):
            tight_x = tight_by_definition(g, x, pms)
            separating_x = separating_by_pms(g, x, pms)
            assert tight >> i & 1 == tight_x, x
            assert separating >> i & 1 == separating_x, x
            solid &= tight_x or not separating_x
        tight_here = [x for i, x in enumerate(shores) if tight >> i & 1]
        assert list(_shores_in(g.n, size, tight)) == tight_here
        tight_list += tight_here
    assert nontrivial_tight_shores(g) == tuple(frozenset(x) for x in tight_list)
    brace = g.is_bipartite() and not tight_list
    assert is_solid(g) == solid
    assert is_brace(g) == brace
    return solid, brace


def test_shore_sets_match_per_shore_queries():
    seen = set()
    for n in range(2, 9, 2):
        for g in enumerate_connected_graphs(n, min_degree=2):
            if is_matching_covered(g):
                seen.add(check_shore_sets(g))
    # solid and not, brace and not: both sides of each verdict occur
    assert {solid for solid, _ in seen} == {True, False}
    assert {brace for _, brace in seen} == {True, False}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(multigraphs(8, even=True))
def test_shore_sets_match_per_shore_queries_on_multigraphs(g):
    assume(is_matching_covered(g))
    check_shore_sets(g)


def test_brace_at_the_pm_cap_folds_one_size_at_a_time():
    # n = 24 has 2^22 odd shores through vertex 0, about 12 MB as bitsets
    # over all of them. A non-brace stops at its first size with a tight
    # shore; a brace reads every size, one fold at a time.
    k = 12
    ladder = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    ladder = Multigraph(2 * k, ladder + [(i, k + i) for i in range(k)])
    nauru = [(i, (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)]
    nauru = Multigraph(2 * k, nauru + [(k + i, k + (i + 5) % k) for i in range(k)])
    for g, brace, mb in ((cycle_graph(24), False, 1), (ladder, False, 1), (nauru, True, 40)):
        pm_table(g)
        _shore_block.cache_clear()
        tracemalloc.start()
        try:
            verdict = is_brace(g)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
            _shore_block.cache_clear()
        assert verdict == brace and peak < mb, (g.edges, verdict, peak)
