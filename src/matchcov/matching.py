"""Maximum matchings and perfect matching enumeration.

The general engine is augmenting-path search with blossom shrinking on the
underlying simple graph; parallel edges never change matchability, so a
matched pair is lifted back to the lowest edge id of its parallel class.
Whether a vertex set has a perfect matching is asked of one depth-first
search, `multigraph.pm_search`, through `Multigraph.has_pm_mask` and the
graph's memo, which maps a vertex mask to the partner of its lowest vertex
in a perfect matching, or to -1 when there is none. The removability
questions, and enumeration, go through the pool of perfect matchings in
`covered`, whose searches run that kernel on that memo.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .covered import pm_table
from .multigraph import Multigraph, bits, per_graph


@dataclass(frozen=True)
class Matching:
    edge_ids: tuple[int, ...]
    covered: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


def _blossom_max_matching(n: int, adj: list[list[int]]) -> list[int]:
    """match[v] = partner or -1; classic O(V^3) blossom shrinking."""
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        used_path = [False] * n
        while True:
            a = base[a]
            used_path[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used_path[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in range(n):
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_path(v)
    return match


def max_matching(g: Multigraph) -> Matching:
    """A maximum-cardinality matching, lifted to lowest parallel edge ids."""
    match = _blossom_max_matching(g.n, [bits(mask) for mask in g.adj_masks])
    edge_ids = []
    for v in range(g.n):
        u = match[v]
        if u > v:
            edge_ids.append(g.parallel_classes[(v, u)][0])
    covered = frozenset(v for v in range(g.n) if match[v] != -1)
    return Matching(tuple(sorted(edge_ids)), covered)


def matching_number(g: Multigraph) -> int:
    return len(max_matching(g).edge_ids)


def has_perfect_matching(g: Multigraph) -> bool:
    if g.n % 2:
        return False
    return g.has_pm_mask(g.full_mask)


def enumerate_perfect_matchings(g: Multigraph) -> Iterator[Matching]:
    """All perfect matchings as edge-id sets; parallel edges are distinct.

    Each perfect matching of the underlying simple graph, in the order of
    the filled witness pool (`covered.pm_table`), stands for one matching
    per choice of an edge in each of its classes.
    """
    table = pm_table(g)
    ids = list(g.parallel_classes.values())
    everyone = frozenset(range(g.n))
    for pm in table.pool:
        for choice in product(*(ids[c] for c in bits(pm))):
            yield Matching(tuple(sorted(choice)), everyone)


@per_graph
def perfect_matchings(g: Multigraph) -> tuple[Matching, ...]:
    """Cached tuple of all perfect matchings (see enumerate_perfect_matchings)."""
    return tuple(enumerate_perfect_matchings(g))
