"""`analyze_graph` against the public kernels, and the work it does.

The report reads per-graph results that the kernels keep: one maximum
matching, one filled table of perfect matchings, one fold per shore size,
one 2-colouring, and the pair groups as maximal barriers. Here every key is
checked against the kernels run on a fresh copy in another order, and one
call is checked to build each of those results once.
"""

import random
import sys
from itertools import islice

import pytest

from matchcov import (
    Multigraph,
    analyze_graph,
    covered,
    cuts,
    is_bicritical,
    is_brace,
    is_brick,
    is_matching_covered,
    is_minimal_mc,
    is_solid,
    is_wheel_like,
    matching_number,
    maximal_barriers,
    removable_doubletons,
    removable_edges,
)
from matchcov.cuts import tight_shores
from matchcov.errors import BoundExceededError
from matchcov.zoo import complete_graph, cycle_graph, petersen_graph, prism_graph
from test_campaigns import _odd_prism


def pm_union(rng: random.Random, n: int, k: int, bipartite: bool) -> Multigraph:
    """The union of k random perfect matchings on n vertices, a pair
    repeated as a parallel edge; bipartite ones match 0..n/2-1 to the rest."""
    edges = []
    for _ in range(k):
        if bipartite:
            right = list(range(n // 2, n))
            rng.shuffle(right)
            edges += zip(range(n // 2), right)
        else:
            order = list(range(n))
            rng.shuffle(order)
            edges += zip(order[::2], order[1::2])
    return Multigraph(n, edges)


def pm_unions(seed: int, count: int) -> list[Multigraph]:
    rng = random.Random(seed)
    return [
        pm_union(rng, rng.choice((8, 10, 12)), rng.randint(3, 5), rng.random() < 0.25)
        for _ in range(count)
    ]


NAMED = (
    [cycle_graph(n) for n in range(4, 31, 2)]
    + [_odd_prism(k) for k in range(3, 13)]
    + [complete_graph(4), complete_graph(6), petersen_graph(), prism_graph()]
)


def refused(kernel, g):
    """The kernel's verdict, or None past its cap."""
    try:
        return kernel(g)
    except BoundExceededError:
        return None


def kernels_on_fresh_copy(g: Multigraph) -> dict:
    """The analyze verdicts from the public kernels on a copy of g, in
    another order than `analyze_graph` asks for them."""
    h = Multigraph(g.n, g.edges)
    out = {"matching_covered": is_matching_covered(h), "matching_number": matching_number(h)}
    out["bipartite"] = h.is_bipartite()
    if not out["matching_covered"]:
        return out
    out["solid"] = refused(is_solid, h)
    # One walk of the tight shores stops after its first shore, a second
    # runs to the end, and the first then resumes: both see every shore.
    try:
        half = tight_shores(h)
        first = list(islice(half, 1))
        whole = list(tight_shores(h))
        assert first + list(half) == whole
    except BoundExceededError:
        whole = None
    out["brace"] = refused(is_brace, h)
    if whole is not None:
        assert out["brace"] == (out["bipartite"] and not whole)
    out["maximal_barriers"] = sorted(sorted(b.vertices) for b in maximal_barriers(h))
    out["bicritical"] = is_bicritical(h)
    out["brick"] = is_brick(h)
    out["removable_singles"] = sorted(list(h.endpoints(e)) for e in removable_edges(h))
    out["removable_doubletons"] = sorted(
        sorted(list(h.endpoints(e)) for e in pair) for pair in removable_doubletons(h)
    )
    out["minimal"] = is_minimal_mc(h)
    out["wheel_like_hubs"] = sorted(is_wheel_like(h)) if out["brick"] else []
    return out


@pytest.mark.parametrize(
    "graphs",
    [NAMED, pm_unions(21, 200)],
    ids=["named", "pm-unions"],
)
def test_analyze_matches_kernels_on_fresh_copies(graphs):
    sides = set()
    for g in graphs:
        report = analyze_graph(g)
        expect = kernels_on_fresh_copy(g)
        for key, value in expect.items():
            assert report[key] == value, (key, g.n, g.edges)
        sides.add((report["matching_covered"], report.get("brace"), report.get("solid")))
    if graphs is not NAMED:
        # Covered or not, brace or not, solid or not: each side occurs.
        assert {False, True} <= {side[0] for side in sides}
        assert {False, True} <= {side[1] for side in sides}
        assert {False, True} <= {side[2] for side in sides}


def test_refused_fold_caches_nothing():
    g = cycle_graph(26)
    for _ in range(2):
        with pytest.raises(BoundExceededError):
            is_brace(g)
    with pytest.raises(BoundExceededError):
        next(tight_shores(g))


def test_analyze_builds_each_kernel_result_once(monkeypatch):
    rng = random.Random(3)
    g = pm_union(rng, 12, 4, True)
    while not g.is_connected():
        g = pm_union(rng, 12, 4, True)
    work = {"grown": 0, "filled": 0, "colourings": 0, "barriers": 0}
    folded: list[int] = []
    modules = [m for name, m in sys.modules.items() if name.startswith("matchcov.")]

    def count(name, real, key, when=lambda *args: True):
        def counted(*args):
            if when(*args):
                work[key] += 1
            return real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)

    count("unmatched", covered.unmatched, "grown", lambda adj, match, within: max(match) == -1)
    count("_two_coloring", covered._two_coloring, "colourings")
    count("_barrier", cuts._barrier, "barriers")
    fill = covered._Witnesses.fill

    def counted_fill(self):
        work["filled"] += not self.complete
        return fill(self)

    monkeypatch.setattr(covered._Witnesses, "fill", counted_fill)
    shore_block = cuts._shore_block
    monkeypatch.setattr(cuts, "_shore_block", lambda n, size: folded.append(size) or shore_block(n, size))

    report = analyze_graph(g)
    assert report["bipartite"] and report["matching_covered"] and report["solid"]
    assert work["grown"] <= 1 and work["filled"] <= 1
    assert work["colourings"] == 1 and work["barriers"] == 0
    assert folded and len(folded) == len(set(folded))
