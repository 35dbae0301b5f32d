"""Tight and separating cuts, solidity, nontrivial tight shores and maximal
barriers against the definitions: on every shore of every small matching
covered graph, and on generated multigraphs."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings

from matchcov import (
    barriers,
    is_brace,
    is_matching_covered,
    is_robust,
    is_separating,
    is_solid,
    is_tight,
    maximal_barriers,
)
from matchcov.covered import pm_table
from matchcov.decomposition import nontrivial_tight_shores
from matchcov.errors import BoundExceededError, NotMatchingCoveredError
from matchcov.zoo import complete_bipartite, complete_graph, cycle_graph, path_graph
from conftest import (
    brute_perfect_matchings,
    mc_by_definition,
    multigraphs,
    separating_by_definition,
    tight_by_definition,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def proper_shores(n):
    for size in range(1, n):
        yield from combinations(range(n), size)


def check_cuts(g):
    """Every shore, both verdicts, and what is built from them; returns
    (solid, has a nontrivial tight cut)."""
    pms = brute_perfect_matchings(g)
    tight, separating = {}, {}
    for x in proper_shores(g.n):
        tight[x] = tight_by_definition(g, x, pms)
        separating[x] = separating_by_definition(g, x)
        assert is_tight(g, x) == tight[x], x
        assert is_separating(g, x) == separating[x], x
    solid = all(tight[x] for x in separating if separating[x])
    assert is_solid(g) == solid
    expect = [x for x in tight if tight[x] and 0 in x and 2 <= len(x) <= g.n - 2]
    assert nontrivial_tight_shores(g) == tuple(frozenset(x) for x in expect)
    assert is_brace(g) == (g.is_bipartite() and not expect)
    return solid, bool(expect)


def check_maximal_barriers(g):
    every = list(barriers(g))
    maximal = [b for b in every if not any(b.vertices < other.vertices for other in every)]
    assert maximal_barriers(g) == tuple(maximal)


def check_refused(g):
    for fn in (is_solid, is_brace, nontrivial_tight_shores, maximal_barriers):
        with pytest.raises(NotMatchingCoveredError):
            fn(g)
    if g.n >= 2:
        for fn in (is_tight, is_separating):
            with pytest.raises(NotMatchingCoveredError):
                fn(g, [0])


def test_cuts_match_definition_on_small_graphs(connected_simple_upto_6):
    seen = set()
    for g in connected_simple_upto_6:
        if not is_matching_covered(g):
            check_refused(g)
            continue
        seen.add(check_cuts(g))
        check_maximal_barriers(g)
    # Solid and not, with a nontrivial tight cut and without: both sides
    # of each verdict occur.
    assert {solid for solid, _ in seen} == {True, False}
    assert {tight for _, tight in seen} == {True, False}


@PROPERTY_SETTINGS
@given(multigraphs(8, even=True))
def test_cuts_match_definition_on_multigraphs(g):
    assume(mc_by_definition(g))
    check_cuts(g)
    check_maximal_barriers(g)


@PROPERTY_SETTINGS
@given(multigraphs(7, even=False))
def test_non_covered_input_is_refused(g):
    assume(not mc_by_definition(g))
    check_refused(g)


def test_pm_table_budget():
    # The budget counts the matchings the enumeration's memo holds, so a
    # dense graph well under the vertex cap is refused early, and K14,
    # whose memo holds 353,522 matchings, is not.
    assert len(pm_table(complete_graph(14)).pool) == 135135
    for g in (complete_bipartite(9, 9), complete_bipartite(12, 12)):
        with pytest.raises(BoundExceededError, match="capped at 524288 matchings"):
            pm_table(g)
        with pytest.raises(BoundExceededError):
            is_brace(g)


def test_caps_are_kept():
    # Past the perfect-matching table's cap, trivial and even cuts are
    # answered by definition; an odd nontrivial one needs its fold, from
    # either shore.
    c26 = cycle_graph(26)
    for fn in (is_tight, is_separating):
        assert fn(c26, [0]) and fn(c26, range(1, 26))
        assert not fn(c26, [0, 1]) and not fn(c26, range(2, 14))
        for shore in (range(13), range(1, 4)):
            with pytest.raises(BoundExceededError):
                fn(c26, shore)
    assert not is_robust(c26, [3])
    with pytest.raises(BoundExceededError):
        is_robust(c26, range(1, 4))
    # Maximal barriers take one search per group and have no cap; the
    # exhaustive oracle keeps its own.
    groups = [sorted(b.vertices) for b in maximal_barriers(cycle_graph(18))]
    assert groups == [list(range(0, 18, 2)), list(range(1, 18, 2))]
    with pytest.raises(BoundExceededError):
        next(barriers(cycle_graph(18)))
    with pytest.raises(BoundExceededError):
        is_solid(cycle_graph(16))
    check_refused(path_graph(4))
    check_maximal_barriers(complete_graph(4))
