"""A stress corpus built from a seed: claims that run in polynomial time
take graphs of any order, and each kernel with an exponential walk refuses
past its own ceiling, whichever runner reaches it."""
import random
import time

import pytest

from matchcov.campaigns import run_corpus
from matchcov.errors import BoundExceededError
from matchcov.graphio import format_mg
from matchcov.multigraph import Multigraph
from matchcov.wheels import WheelSpec, make_wheel, search_G_certificate, simple_wheel, verify_certificate
from matchcov.zoo import cycle_graph
from test_cli import EXIT_BOUND, run_cli


def prism(k: int) -> Multigraph:
    """C_k x K2: two k-cycles and k rungs. A brick for odd k, bipartite
    for even k."""
    cycles = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return Multigraph(2 * k, cycles + [(i, k + i) for i in range(k)])


def moebius_ladder(n: int) -> Multigraph:
    """The n-cycle with its n/2 long diagonals; bipartite when n/2 is odd."""
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])


def hypercube(d: int) -> Multigraph:
    return Multigraph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1])


def relabelled(g: Multigraph, rng: random.Random) -> Multigraph:
    """g with its vertices renamed and its edges reordered at random."""
    name = list(range(g.n))
    rng.shuffle(name)
    edges = [(name[u], name[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Multigraph(g.n, edges)


def stress_corpus(seed: int) -> list[Multigraph]:
    """Odd prisms on 18-62 vertices, Moebius ladders on 20-48 (two of them
    bipartite) and the 5-cube, relabelled from `seed`."""
    rng = random.Random(seed)
    graphs = [prism(k) for k in (9, 15, 21, 31)] + [moebius_ladder(n) for n in (20, 22, 34, 48)]
    return [relabelled(g, rng) for g in graphs + [hypercube(5)]]


def certificate_gadget(k: int) -> Multigraph:
    """K_{k,k} on X = 0..k-1 and Y = k..2k-1, plus the path 0, v, w, k
    through v = 2k and w = 2k + 1. Edge 0v is not removable, and its
    certificate is A1 = X, B1 = Y: the component of 0 once 0v and wk,
    which lies only in perfect matchings through 0v, are dropped."""
    complete = [(x, k + y) for x in range(k) for y in range(k)]
    return Multigraph(2 * k + 2, complete + [(0, 2 * k), (2 * k, 2 * k + 1), (2 * k + 1, k)])


# Claim name -> graphs of the corpus it applies to: the six bricks (odd
# prisms, and the Moebius ladders on 20 and 48 vertices) are bicritical and
# have removable edges; the three bipartite graphs are cubic or 5-regular.
APPLIED = {"thm-1.1": 6, "thm-1.4": 9, "prop-3.13": 6, "lemma-2.18": 3}


@pytest.mark.parametrize("name", sorted(APPLIED))
def test_polynomial_claims_take_large_graphs(name):
    rep = run_corpus(name, stress_corpus(seed=0), source="stress")
    assert rep["counterexamples"] == []
    assert rep["summary"]["applied"] == APPLIED[name]
    assert rep["summary"]["status"] == "pass"


@pytest.mark.parametrize("k", [4, 19, 31])
def test_gadget_certificates_are_checked_at_any_order(k):
    # 10, 40 and 64 vertices: the certificate search is polynomial, so
    # lemma-2.16 has no vertex ceiling.
    start = time.perf_counter()
    rep = run_corpus("lemma-2.16", [certificate_gadget(k)])
    assert rep["summary"] == {"applied": 1, "skipped_hypotheses": 0, "status": "pass"}
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "name, graph, kernel",
    [
        # The tight cut decomposition reads the perfect matching table.
        ("decomp-unique", cycle_graph(26), "perfect matching enumeration"),
        ("lemma-2.17", prism(20), "P-set enumeration"),
    ],
)
def test_kernels_refuse_their_runaways(name, graph, kernel):
    with pytest.raises(BoundExceededError, match=kernel):
        run_corpus(name, [graph])


def test_certificate_search_stops_at_the_pm_table():
    # A brick that is not a wheel is certified from its separating cuts,
    # read from the perfect matching table: 26 vertices is past its cap.
    with pytest.raises(BoundExceededError, match="perfect matching enumeration capped at 24 vertices"):
        search_G_certificate(prism(13))


@pytest.mark.parametrize(
    "wheel",
    [simple_wheel(9)[0], make_wheel(WheelSpec(7, (6, 1, 1, 1, 1, 1, 1)))[0]],
    ids=["9-wheel", "7-wheel spoke 6"],
)
def test_any_base_wheel_is_certified_at_once(wheel):
    # A wheel is a leaf of its own certificate, whatever its order or its
    # spoke multiplicities: no catalog of wheels is built.
    start = time.perf_counter()
    assert verify_certificate(search_G_certificate(wheel))[0]
    rep = run_corpus("thm-1.3", [wheel])
    assert rep["summary"] == {"applied": 1, "skipped_hypotheses": 0, "status": "pass"}
    assert time.perf_counter() - start < 1


def test_p_sets_of_large_bipartite_graphs():
    # The 22- and 34-vertex Moebius ladders and the 5-cube: P-sets are
    # walked over the subsets of one side, so 34 vertices is in reach.
    start = time.perf_counter()
    rep = run_corpus("lemma-2.17", stress_corpus(seed=0))
    assert rep["counterexamples"] == []
    assert rep["summary"]["applied"] == 3
    assert rep["summary"]["status"] == "pass"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_refusal_exits_3_in_workers_too(tmp_path, jobs):
    # lemma-2.17's claim, and so the P-set kernel's refusal, runs in the
    # worker processes when jobs > 1.
    corpus = tmp_path / "prism40.mg"
    corpus.write_text(format_mg(prism(20)))
    code, _, err = run_cli(["verify", "lemma-2.17", "--corpus", str(corpus), "--jobs", jobs])
    assert code == EXIT_BOUND
    assert "P-set enumeration capped at 36 vertices" in err
