"""Bipartite matching covered graphs: P-sets and removability
certificates.

Everything here fixes the bipartition (A, B) as the two color classes with
vertex 0 in A; inputs must be connected bipartite matching covered graphs.
A certificate (A1, B1) is read from the witness pool: see `_certificate_search`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .covered import _witnesses, is_matching_covered, is_removable_edge
from .errors import BoundExceededError, NotBipartiteMCError
from .multigraph import Multigraph, _reach, bits, mask_of, per_graph

_PSET_MAX_N = 14


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


def _edge_rows(g: Multigraph) -> list[list[int]]:
    """Per vertex v, neighbour bitmasks by multiplicity: bit w of
    rows[v][j] says that more than j edges join v and w."""
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for (u, v), ids in g.parallel_classes.items():
        for x, y in ((u, v), (v, u)):
            row = rows[x]
            row += [0] * (len(ids) - len(row))
            for j in range(len(ids)):
                row[j] |= 1 << y
    return rows


def _p_set(rows: list[list[int]], xa: tuple[int, ...], xb: tuple[int, ...]) -> Optional[PSet]:
    """PSet record for X = xa + xb, balanced with xa in A and xb in B, when
    a single edge leaves X's A-side or enters its B-side."""
    outside = ~mask_of(xa + xb)
    out_a = sum((row & outside).bit_count() for v in xa for row in rows[v])
    in_b = sum((row & outside).bit_count() for v in xb for row in rows[v])
    if out_a == 1 or in_b == 1:
        return PSet(frozenset(xa + xb), out_a == 1, in_b == 1)
    return None


def all_P_sets(g: Multigraph) -> Iterator[PSet]:
    """Stream of P-sets in (size, sorted vertices) order."""
    if g.n > _PSET_MAX_N:
        raise BoundExceededError(f"P-set enumeration capped at {_PSET_MAX_N} vertices")
    a, b = bipartition(g)
    a_sorted, b_sorted = sorted(a), sorted(b)
    rows = _edge_rows(g)
    for k in range(1, min(len(a), len(b)) + 1):
        if 2 * k >= g.n:
            break
        found = []
        for xa in combinations(a_sorted, k):
            for xb in combinations(b_sorted, k):
                p = _p_set(rows, xa, xb)
                if p is not None:
                    found.append(p)
        found.sort(key=lambda p: sorted(p.vertices))
        yield from found


def minimum_P_set(g: Multigraph) -> Optional[PSet]:
    for p in all_P_sets(g):
        return p
    return None


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
