"""The two vertex-pair questions against their pair-by-pair oracles.

`pm_pair_groups` runs one blossom search per group, and `separating_pairs`
one bit-parallel breadth-first search per chunk of pairs. The oracles in
conftest ask each pair on its own; the answers, and their order, must be
the same. On a graph with no perfect matching `pm_pair_groups` refuses.
"""

import random

import pytest
from hypothesis import given, settings

from matchcov import Multigraph, covered, enumerate_connected_graphs, is_bicritical, is_brick, multigraph
from matchcov.covered import _SWEEP_BITS, pm_pair_groups, separating_pairs
from matchcov.errors import NotMatchingCoveredError
from matchcov.multigraph import blossom_search
from conftest import multigraphs, reference_pm_pair_groups, reference_separating_pairs

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def check_scans(g):
    # The oracle runs on a copy, so neither reads a memo the other seeded.
    fresh = Multigraph(g.n, g.edges)
    if fresh.has_pm_mask(fresh.full_mask):
        assert pm_pair_groups(g) == reference_pm_pair_groups(fresh), g.edges
    else:
        with pytest.raises(NotMatchingCoveredError):
            pm_pair_groups(g)
    assert list(separating_pairs(g)) == reference_separating_pairs(fresh), g.edges


def test_every_connected_graph_up_to_8():
    for n in range(1, 9):
        for g in enumerate_connected_graphs(n):
            check_scans(g)


@PROPERTY_SETTINGS
@given(multigraphs(9, even=False))
def test_generated_multigraphs(g):
    # Odd orders, disconnected graphs and graphs with no perfect matching
    # all occur here.
    check_scans(g)


def random_graph(rng, n, p):
    return Multigraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_seeded_graphs_over_several_chunks():
    rng = random.Random(3)
    for trial in range(12):
        n = rng.randint(30, 40)
        assert n * (n - 1) // 2 > _SWEEP_BITS // n  # more pairs than one chunk holds
        g = random_graph(rng, n, rng.choice([0.2, 0.3]))
        if trial % 3 == 0:
            # Two blocks glued at vertex 0: G - 0 is disconnected already.
            k = n // 2
            glued = [(u, v) for u, v in g.edges if (u < k) == (v < k) or 0 in (u, v)]
            g = Multigraph(n, glued + [(0, k)])
            assert g.component_mask(1, g.full_mask ^ 1) != g.full_mask ^ 1
        check_scans(g)


def prism(k):
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return Multigraph(2 * k, rims + [(i, k + i) for i in range(k)])


def moebius_ladder(n):
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])


def test_brick_test_is_polynomial_on_ladders(monkeypatch):
    # A pair-by-pair scan asks n(n-1)/2 perfect-matching questions (1,225
    # for the 50-vertex prism), each with searches of its own; one search
    # per vertex makes about n. Counting the Edmonds searches bounds the
    # work without timing it.
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return blossom_search(*args)

    monkeypatch.setattr(multigraph, "blossom_search", counted)
    monkeypatch.setattr(covered, "blossom_search", counted)
    for g, brick in ((prism(25), True), (prism(63), True), (moebius_ladder(50), False)):
        calls = 0
        assert is_brick(g) == brick
        assert is_bicritical(g) == brick
        assert 0 < calls <= 2 * g.n
