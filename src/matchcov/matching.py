"""Maximum matchings and perfect matching enumeration.

Maximum matchings grow by augmenting paths from `multigraph.blossom_search`,
the one blossom search, on the underlying simple graph; parallel edges never
change matchability, so a matched pair is lifted back to the lowest edge id
of its parallel class. `covered.pm_pair_groups` reads the same search's outer
vertices.
Whether a vertex set has a perfect matching is asked of one depth-first
search, `multigraph.pm_search`, through `Multigraph.has_pm_mask` and the
graph's memo, which maps a vertex mask to the partner of its lowest vertex
in a perfect matching, or to -1 when there is none. The removability
questions, and enumeration, go through the pool of perfect matchings in
`covered`, whose searches run that kernel on that memo.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .covered import pm_table
from .multigraph import Multigraph, bits, blossom_search, per_graph


@dataclass(frozen=True)
class Matching:
    edge_ids: tuple[int, ...]
    covered: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


def max_matching(g: Multigraph) -> Matching:
    """A maximum-cardinality matching, lifted to lowest parallel edge ids."""
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            blossom_search(g.adj_masks, match, v, g.full_mask)
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
