"""Bipartite matching covered graphs: P-sets and removability
certificates.

Everything here fixes the bipartition (A, B) as the two color classes with
vertex 0 in A; inputs must be connected bipartite matching covered graphs.
Such a graph is elementary, so Hall's condition holds with one vertex to
spare, and a P-set is read from a set of one side with exactly one to spare:
see `all_P_sets`. A certificate (A1, B1) is read from the witness pool: see
`_certificate_search`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .covered import _witnesses, is_matching_covered, is_removable_edge
from .errors import BoundExceededError, NotBipartiteMCError
from .multigraph import Multigraph, _reach, bits, mask_of, per_graph

_PSET_MAX_N = 36


@per_graph
def bipartition(g: Multigraph) -> tuple[frozenset[int], frozenset[int]]:
    """(A, B) color classes, vertex 0 in A; requires bipartite MC input."""
    if not is_matching_covered(g):
        raise NotBipartiteMCError("graph is not matching covered")
    coloring = g.two_coloring()
    if coloring is None:
        raise NotBipartiteMCError("graph is not bipartite")
    a = frozenset(v for v in range(g.n) if coloring[v] == coloring[0])
    b = frozenset(range(g.n)) - a
    return a, b


@dataclass(frozen=True)
class PSet:
    vertices: frozenset[int]
    # Which single-crossing direction holds: edges from X's A-side out, and
    # edges into X's B-side from outside. At least one is True.
    out_of_a: bool
    into_b: bool


def all_P_sets(g: Multigraph) -> Iterator[PSet]:
    """Stream of P-sets in (size, sorted vertices) order.

    G is elementary, so every nonempty proper subset S of a side has at
    least |S| + 1 neighbours (Hall). One edge leaves X's A-side S exactly
    when S has |S| + 1 neighbours and one edge joins S to the neighbour w
    outside X, so X = S + N(S) - w; the same holds for X's B-side and the
    edge into it.
    """
    if g.n > _PSET_MAX_N:
        raise BoundExceededError(f"P-set enumeration capped at {_PSET_MAX_N} vertices")
    sides = [sorted(side) for side in bipartition(g)]
    for k in range(1, g.n // 2):
        found: dict[frozenset[int], list[bool]] = {}
        for i, side in enumerate(sides):
            for s in combinations(side, k):
                around = 0
                for v in s:
                    around |= g.adj_masks[v]
                if around.bit_count() != k + 1:
                    continue
                for w in bits(around):
                    if sum(g.multiplicity(v, w) for v in s) == 1:
                        x = frozenset(s).union(bits(around ^ 1 << w))
                        found.setdefault(x, [False, False])[i] = True
        for x in sorted(found, key=sorted):
            yield PSet(x, *found[x])


def minimum_P_set(g: Multigraph) -> Optional[PSet]:
    return next(all_P_sets(g), None)


@dataclass(frozen=True)
class RemovabilityCertificate:
    """Witness that edge uv is non-removable: a proper matching covered
    subgraph G[A1 + B1] with u in A1, v outside B1, and uv the only edge
    from A1 to B minus B1."""

    a1: frozenset[int]
    b1: frozenset[int]


def _certificate_search(
    g: Multigraph, e: int, a: frozenset[int], b: frozenset[int]
) -> Optional[RemovabilityCertificate]:
    """The certificate of e with A1 in `a`, or None: u's component C once
    e's class and the classes that depend on it are dropped.

    Every perfect matching of G minus e's class matches a certificate
    A1 + B1 onto itself, so the edges leaving it are dropped, while the
    matching covered G[A1 + B1] keeps all of its own: the certificate is
    unique, and it is C. Left to check: C is balanced, and v, through u
    alone, is the only vertex outside C next to C ∩ A.
    """
    u, v = g.endpoints(e)
    if u in b:
        u, v = v, u
    pool = _witnesses(g)
    drop = 1 << pool.edge_class[e]
    c = _reach(pool.adjacency_without(drop | pool.dependents(drop)), u, g.full_mask)
    a1 = c & mask_of(a)
    if 2 * a1.bit_count() != c.bit_count() or any(
        g.adj_masks[x] & ~c != (1 << v if x == u else 0) for x in bits(a1)
    ):
        return None
    return RemovabilityCertificate(frozenset(bits(a1)), frozenset(bits(c ^ a1)))


def is_removable_bipartite(g: Multigraph, e: int) -> tuple[bool, Optional[RemovabilityCertificate]]:
    """(removable?, non-removability certificate when not removable).

    `is_removable_edge` decides removability; the certificate is read for a
    non-removable edge only, as the component of e's end in A over the
    edges left in perfect matchings of G - e. The lemma is symmetric in A
    and B, so one orientation is enough, and a None here is a counterexample.
    """
    a, b = bipartition(g)
    if is_removable_edge(g, e):
        return True, None
    return False, _certificate_search(g, e, a, b)
