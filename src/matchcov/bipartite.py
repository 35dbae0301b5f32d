"""Bipartite matching covered graphs: P-sets and removability
certificates.

Everything here fixes the bipartition (A, B) as the two color classes with
vertex 0 in A; inputs must be connected bipartite matching covered graphs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .covered import is_matching_covered, is_removable_edge
from .errors import BoundExceededError, NotBipartiteMCError
from .multigraph import Multigraph, mask_of, per_graph

_PSET_MAX_N = int(os.environ.get("MATCHCOV_MAX_PSET_N", "14"))


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


def is_P_set(g: Multigraph, x) -> Optional[PSet]:
    """PSet record when X is balanced with a single crossing one way."""
    a, b = bipartition(g)
    x = frozenset(x)
    if not x or len(x) >= g.n:
        return None
    if len(x & a) != len(x & b):
        return None
    return _p_set(_edge_rows(g), tuple(x & a), tuple(x & b))


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
    u, v = g.endpoints(e)
    if u in b:
        u, v = v, u
    a_rest = sorted(a)
    b_rest = sorted(b - {v})
    for ka in range(1, len(a)):
        for a1 in combinations(a_rest, ka):
            if u not in a1:
                continue
            a1set = frozenset(a1)
            # E[A1, B - B1] = {uv} forces B1 to contain every other
            # B-neighbor of A1 except v; b1 must also keep |B1| = |A1| for
            # the subgraph to be coverable, so search same-size subsets.
            for b1 in combinations(b_rest, ka):
                b1set = frozenset(b1)
                crossing = [
                    (x, y)
                    for (x, y) in g.edges
                    if (x in a1set and y in b - b1set) or (y in a1set and x in b - b1set)
                ]
                if len(crossing) != g.multiplicity(u, v):
                    continue
                if not all(set(pair) == {u, v} for pair in crossing):
                    continue
                sub = g.induced(sorted(a1set | b1set))
                if is_matching_covered(sub):
                    return RemovabilityCertificate(a1set, b1set)
    return None


def is_removable_bipartite(g: Multigraph, e: int) -> tuple[bool, Optional[RemovabilityCertificate]]:
    """(removable?, non-removability certificate when not removable).

    `is_removable_edge` decides removability; the certificate is found
    by subset search over same-size class pairs and is None exactly when the
    edge is removable.
    """
    a, b = bipartition(g)
    if is_removable_edge(g, e):
        return True, None
    cert = _certificate_search(g, e, a, b)
    if cert is None:
        # Try the mirrored orientation, with B in the role of A: then a1
        # lies in B and b1 in A.
        cert = _certificate_search(g, e, b, a)
    return False, cert
