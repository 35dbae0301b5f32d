"""Perfect matchings grown by the one Edmonds search, against definitions.

Witness searches for removability start from the perfect matching kept per
graph, the one `is_bicritical` and `maximal_barriers` read too, so every
answer is checked after the witness searches ran, in either order of the
readers.
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
from matchcov.covered import _perfect_matching
from matchcov.multigraph import bits, unmatched
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


def check_seeded(g, masks, barriers_first):
    covered = is_matching_covered(g)
    if covered:
        removable_edges(g)
        removable_doubletons(g)

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


@PROPERTY_SETTINGS
@given(multigraphs(8, even=True), st.data())
def test_answers_match_definition(g, data):
    masks = data.draw(st.lists(st.integers(0, g.full_mask), max_size=12))
    for barriers_first in (False, True):
        check_seeded(Multigraph(g.n, g.edges), masks, barriers_first)


def check_grown(g, mask):
    """`unmatched` on an empty matching leaves a perfect matching of `mask`
    exactly when it yields nothing."""
    match = [-1] * g.n
    left = next(unmatched(g.adj_masks, match, mask), None)
    if left is not None:
        assert not pm_by_definition(g, mask), bits(mask)
        assert mask >> left & 1
        return
    assert pm_by_definition(g, mask), bits(mask)
    for v in range(g.n):
        u = match[v]
        if not mask >> v & 1:
            assert u == -1
            continue
        assert u != v and mask >> u & 1 and g.multiplicity(v, u), (v, u)
        assert match[u] == v


@PROPERTY_SETTINGS
@given(multigraphs(8, even=False), st.data())
def test_grown_matching_is_perfect(g, data):
    for mask in [g.full_mask, *data.draw(st.lists(st.integers(0, g.full_mask), max_size=12))]:
        check_grown(g, mask)
    pm = _perfect_matching(g)
    assert (pm is not None) == pm_by_definition(g, g.full_mask)


def test_partners_spell_a_perfect_matching():
    for g in (complete_graph(6), cycle_graph(8), petersen_graph()):
        check_grown(g, g.full_mask)
        assert _perfect_matching(g) is not None
        # An odd set has none.
        check_grown(g, g.full_mask >> 1)
    # A triangle 0 1 2, an edge 2 3 and two leaves 4, 5 at 3: even and
    # connected, but both leaves need 3.
    g = Multigraph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5)])
    check_grown(g, g.full_mask)
    assert _perfect_matching(g) is None
