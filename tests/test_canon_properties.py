"""Property tests of canonical forms on generated multigraphs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from matchcov import Multigraph, automorphisms, canonical_form, canonical_labeling, vertex_orbits
import conftest
from conftest import (
    naive_isomorphic,
    reference_automorphisms,
    reference_canonical_labeling,
    reference_vertex_orbits,
)

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def multigraphs(draw, max_n: int):
    """Multigraphs on 1..max_n vertices, each pair of multiplicity 0..3."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return Multigraph(n, [pair for pair, cnt in zip(pairs, mults) for _ in range(cnt)])


@PROPERTY_SETTINGS
@given(st.data())
def test_canonical_form_invariant_under_random_relabeling(data):
    g = data.draw(multigraphs(7))
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(g.relabeled(perm)) == canonical_form(g)


@PROPERTY_SETTINGS
@given(st.data())
def test_canonical_form_equality_matches_naive_isomorphism(data):
    # h is a relabeled copy of g, sometimes with one pair's multiplicity
    # redrawn, so both isomorphic and non-isomorphic pairs occur.
    g = data.draw(multigraphs(5))
    h = g.relabeled(data.draw(st.permutations(range(g.n))))
    if g.n > 1 and data.draw(st.booleans()):
        pair = st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)
        u, v = sorted(data.draw(pair))
        cnt = data.draw(st.integers(0, 3))
        h = Multigraph(g.n, [e for e in h.edges if e != (u, v)] + [(u, v)] * cnt)
    assert (canonical_form(g) == canonical_form(h)) == naive_isomorphic(g, h)


@st.composite
def oracle_multigraphs(draw):
    """Multigraphs on 1..14 vertices: pair multiplicities 1..3, sometimes
    254..300 (the escaped byte form), sometimes a relabelled circulant,
    whose search branches."""
    n = draw(st.integers(1, 14))
    wide = draw(st.integers(0, 4)) == 0
    if n > 2 and draw(st.integers(0, 3)) == 0:
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
        cnt = draw(st.integers(254, 300) if wide else st.integers(1, 3))
        edges = {(u, (u + j) % n) for u in range(n) for j in jumps}
        perm = draw(st.permutations(range(n)))
        pairs = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        return Multigraph(n, [pair for pair in sorted(pairs) for _ in range(cnt)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if wide:
        present = st.one_of(st.just(0), st.integers(1, 3), st.integers(254, 300))
    else:
        present = st.sampled_from([0, 0, 0, 1, 1, 2, 3])
    mults = draw(st.lists(present, min_size=len(pairs), max_size=len(pairs)))
    return Multigraph(n, [pair for pair, cnt in zip(pairs, mults) for _ in range(cnt)])


@PROPERTY_SETTINGS
@given(oracle_multigraphs())
def test_canonical_labeling_matches_reference_kernel(g):
    assert canonical_labeling(g) == reference_canonical_labeling(g)


@PROPERTY_SETTINGS
@given(conftest.multigraphs(8, even=False))
def test_automorphisms_and_orbits_match_reference(g):
    assert automorphisms(g) == reference_automorphisms(g)
    assert vertex_orbits(g) == reference_vertex_orbits(g)
