"""The one perfect-matching search and the memo it shares per graph.

Witness searches for removability fill the same memo that `has_pm_mask`,
`is_bicritical` and `maximal_barriers` read, so every answer is checked
after the memo has been seeded, in either order of the readers.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from matchcov import (
    Multigraph,
    is_bicritical,
    is_matching_covered,
    maximal_barriers,
    removable_doubletons,
    removable_edges,
)
from matchcov.multigraph import bits, pm_pairs, pm_search
from matchcov.zoo import complete_graph, cycle_graph, petersen_graph
from conftest import brute_perfect_matchings, multigraphs

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def pm_by_definition(g, mask):
    return bool(brute_perfect_matchings(g.induced(bits(mask))))


def bicritical_by_definition(g):
    if g.n < 4 or g.n % 2:
        return False
    full = g.full_mask
    return all(
        pm_by_definition(g, full ^ 1 << u ^ 1 << v) for u, v in combinations(range(g.n), 2)
    )


def maximal_barriers_by_definition(g):
    """Nonempty S with as many odd components of G - S as vertices, and in
    no larger such set; in (size, sorted vertices) order."""
    every = []
    for size in range(1, g.n + 1):
        for s in combinations(range(g.n), size):
            rest = g.full_mask ^ sum(1 << v for v in s)
            odd = sum(c.bit_count() % 2 for c in g.component_masks(rest))
            if odd == size:
                every.append(frozenset(s))
    return [sorted(s) for s in every if not any(s < other for other in every)]


def check_memo(g):
    """Each solved mask names an edge at its lowest vertex whose removal
    leaves a solved mask, so partners spell a matching; each -1 is right."""
    memo = g._pm_memo
    for mask, partner in memo.items():
        if partner < 0:
            assert not pm_by_definition(g, mask), bits(mask)
        elif mask:
            low = (mask & -mask).bit_length() - 1
            assert partner != low and mask >> partner & 1 and g.adj_masks[low] >> partner & 1
            assert memo[mask ^ 1 << low ^ 1 << partner] >= 0


def check_seeded(g, masks, barriers_first):
    covered = is_matching_covered(g)
    if covered:
        removable_edges(g)
        removable_doubletons(g)
    if g.n >= 4 and g.m:
        # The witness searches ran on the graph's own memo.
        assert len(g._pm_memo) > 1

    def bicritical():
        assert is_bicritical(g) == bicritical_by_definition(g)

    def barriers():
        if covered:
            got = [sorted(b.vertices) for b in maximal_barriers(g)]
            assert got == maximal_barriers_by_definition(g)

    for read in (barriers, bicritical) if barriers_first else (bicritical, barriers):
        read()
    for mask in masks:
        assert g.has_pm_mask(mask) == pm_by_definition(g, mask), bits(mask)
    check_memo(g)


@PROPERTY_SETTINGS
@given(multigraphs(8, even=True), st.data())
def test_shared_memo_matches_definition(g, data):
    masks = data.draw(st.lists(st.integers(0, g.full_mask), max_size=12))
    for barriers_first in (False, True):
        check_seeded(Multigraph(g.n, g.edges), masks, barriers_first)


def test_partners_spell_a_perfect_matching():
    for g in (complete_graph(6), cycle_graph(8), petersen_graph()):
        memo = {0: 0}
        assert pm_search(g.adj_masks, g.full_mask, memo)
        pairs = list(pm_pairs(g.full_mask, memo))
        assert sorted(v for pair in pairs for v in pair) == list(range(g.n))
        assert all(g.multiplicity(u, v) for u, v in pairs)
        # An odd set has none, and the memo says so.
        assert not pm_search(g.adj_masks, g.full_mask >> 1, memo)
        assert memo[g.full_mask >> 1] == -1
