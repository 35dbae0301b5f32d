"""Maximum matchings and perfect matching enumeration.

Every matching here comes from `multigraph.blossom_search`, the one Edmonds
search, on the underlying simple graph. The maximum matching is the one
that `covered` grows per graph (`covered._max_matching`); parallel edges
never change matchability, so a matched pair is lifted back to the lowest
edge id of its parallel class. Whether g has a perfect matching asks
whether that matching is perfect, and enumeration reads the pool of perfect
matchings there.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .covered import _max_matching, _perfect_matching, pm_table
from .multigraph import Multigraph, bits, per_graph


@dataclass(frozen=True)
class Matching:
    edge_ids: tuple[int, ...]
    covered: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


def max_matching(g: Multigraph) -> Matching:
    """A maximum-cardinality matching, lifted to lowest parallel edge ids."""
    match = _max_matching(g)
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
    return _perfect_matching(g) is not None


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
