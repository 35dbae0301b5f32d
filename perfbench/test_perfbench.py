"""Tests of the benchmark's own code: the seeded input generator and the
tracer. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pmunion  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SMALL = {8: 8, 10: 4}


def _two_colourable(n, edges) -> bool:
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for a, b in edges:
                if v in (a, b):
                    w = b if a == v else a
                    if colour[w] < 0:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return False
    return True


def test_same_seed_gives_same_bytes():
    first = "".join(g.text for g in pmunion.corpus(7, SMALL))
    again = "".join(g.text for g in pmunion.corpus(7, SMALL))
    other = "".join(g.text for g in pmunion.corpus(8, SMALL))
    assert first == again
    assert first != other


def test_strata_sizes_and_bipartite_share():
    graphs = pmunion.corpus(3, SMALL)
    for n, count in SMALL.items():
        for k in pmunion.MATCHINGS:
            stratum = [g for g in graphs if g.n == n and g.k == k]
            assert len(stratum) == count
            assert sum(g.bipartite for g in stratum) == count // pmunion.BIPARTITE_EVERY
            assert all(len(g.edges) == k * n // 2 for g in stratum)


def test_bipartite_variant_is_two_colourable():
    for g in pmunion.corpus(5, SMALL):
        if g.bipartite:
            assert _two_colourable(g.n, g.edges)


def test_connected_union_is_matching_covered_by_brute_force():
    graphs = pmunion.corpus(11, SMALL)
    assert any(g.connected for g in graphs) and any(not g.connected for g in graphs)
    for g in graphs:
        assert pmunion.brute_force_matching_covered(g.n, g.edges) == g.connected


def test_text_parses_back_to_the_same_multigraph():
    from matchcov import parse_graph_text

    for g in pmunion.corpus(2, SMALL):
        parsed = parse_graph_text(g.text)
        assert parsed.n == g.n
        assert sorted(parsed.edges) == sorted(g.edges)


def test_tracer_sees_internal_calls_and_restores_bindings():
    import matchcov
    from matchcov import covered, cuts
    from matchcov.multigraph import Multigraph
    from matchcov.zoo import prism_graph

    original = covered.is_matching_covered
    original_pm = Multigraph.has_pm_mask
    tracer = Tracer()
    tracer.install()
    try:
        assert cuts.is_matching_covered is covered.is_matching_covered is not original
        tracer.run_id = 1
        report = matchcov.analyze_graph(prism_graph())
    finally:
        tracer.uninstall()
    assert report["brick"]
    assert covered.is_matching_covered is original
    assert cuts.is_matching_covered is original
    assert Multigraph.has_pm_mask is original_pm

    metrics = layer_metrics(tracer)
    assert metrics["covered.brick_calls"][0] >= 1
    assert metrics["multigraph.pm_queries"][0] > 0
    assert metrics["decomposition.solid_calls"][0] == 1
    assert metrics["cuts.separating_calls"][0] > 0
    assert set(tracer.run) == {1}
    # Self times of all spans add up to the time of the root spans.
    self_s, _ = tracer.self_times()
    roots = sum(
        tracer.end[i] - tracer.start[i] for i in range(len(tracer.parent)) if tracer.parent[i] < 0
    )
    assert abs(sum(self_s.values()) - roots) < 1e-6
    assert all(v >= -1e-9 for v in self_s.values())
