"""Edge cuts of matching covered graphs and the barrier machinery.

A cut is named by a shore X; its boundary is every edge slot with exactly
one end in X. Tightness (every perfect matching crosses exactly once) is
decided against the full perfect-matching list, which the graph caches.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .covered import is_matching_covered
from .errors import BoundExceededError, EmptyShoreError, NotMatchingCoveredError
from .matching import odd_components_count, perfect_matchings
from .multigraph import Multigraph, bits, mask_of

_BARRIER_MAX_N = int(os.environ.get("MATCHCOV_MAX_BARRIER_N", "16"))


@dataclass(frozen=True)
class EdgeCut:
    shore: frozenset[int]
    boundary: tuple[int, ...]

    def is_trivial(self, g: Multigraph) -> bool:
        return len(self.shore) == 1 or len(self.shore) == g.n - 1


@dataclass(frozen=True)
class Barrier:
    vertices: frozenset[int]
    odd_components: tuple[frozenset[int], ...]


def edge_cut(g: Multigraph, shore: Iterable[int]) -> EdgeCut:
    x = frozenset(shore)
    if not x or len(x) >= g.n:
        raise EmptyShoreError("shore must be a nonempty proper vertex subset")
    xm = mask_of(x)
    boundary = tuple(
        e for e, (u, v) in enumerate(g.edges) if ((xm >> u) & 1) != ((xm >> v) & 1)
    )
    return EdgeCut(x, boundary)


def is_tight(g: Multigraph, shore: Iterable[int]) -> bool:
    """Every perfect matching contains exactly one boundary edge."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("tightness is defined on matching covered graphs")
    cut = edge_cut(g, shore)
    boundary = set(cut.boundary)
    for pm in perfect_matchings(g):
        if sum(1 for e in pm.edge_ids if e in boundary) != 1:
            return False
    return True


def contractions(g: Multigraph, shore: Iterable[int]) -> tuple[Multigraph, Multigraph]:
    """(G with complement contracted, G with shore contracted)."""
    x = frozenset(shore)
    if not x or len(x) >= g.n:
        raise EmptyShoreError("shore must be a nonempty proper vertex subset")
    complement = frozenset(range(g.n)) - x
    g_keep_x, _ = g.contract(complement)
    g_keep_rest, _ = g.contract(x)
    return g_keep_x, g_keep_rest


def is_separating(g: Multigraph, shore: Iterable[int]) -> bool:
    """Both shore contractions are matching covered."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("separating cuts live in matching covered graphs")
    x = frozenset(shore)
    if not x or len(x) >= g.n:
        raise EmptyShoreError("shore must be a nonempty proper vertex subset")
    if len(x) % 2 == 0:
        return False
    a, b = contractions(g, x)
    return is_matching_covered(a) and is_matching_covered(b)


def is_robust(g: Multigraph, shore: Iterable[int]) -> bool:
    """Separating, not tight, and both contractions are near-bricks."""
    from .decomposition import is_near_brick

    x = frozenset(shore)
    if not is_separating(g, x):
        return False
    if is_tight(g, x):
        return False
    a, b = contractions(g, x)
    return is_near_brick(a) and is_near_brick(b)


def barriers(g: Multigraph) -> Iterator[Barrier]:
    """All barriers: nonempty S with o(G - S) = |S|, in (size, mask) order.

    Requires a graph with a perfect matching. Only the definitional cuts are
    applied (|S| <= n/2 and parity), so independence of barriers stays a
    checkable property downstream rather than an assumption.
    """
    if g.n > _BARRIER_MAX_N:
        raise BoundExceededError(
            f"barrier enumeration capped at {_BARRIER_MAX_N} vertices"
        )
    if not g.has_perfect_matching():
        raise NotMatchingCoveredError("barriers are defined for graphs with a perfect matching")
    full = g.full_mask
    subsets_by_size: list[list[int]] = [[] for _ in range(g.n // 2 + 1)]
    for size in range(1, g.n // 2 + 1):
        for combo in combinations(range(g.n), size):
            subsets_by_size[size].append(mask_of(combo))
    for size in range(1, g.n // 2 + 1):
        for s_mask in subsets_by_size[size]:
            within = full & ~s_mask
            comps = g.component_masks(within)
            odd = [c for c in comps if c.bit_count() % 2]
            if len(odd) == size:
                yield Barrier(
                    frozenset(bits(s_mask)),
                    tuple(frozenset(bits(c)) for c in odd),
                )


def maximal_barriers(g: Multigraph) -> tuple[Barrier, ...]:
    all_barriers = list(barriers(g))
    out = []
    for b in all_barriers:
        if not any(
            b.vertices < other.vertices for other in all_barriers if other is not b
        ):
            out.append(b)
    return tuple(out)


def is_barrier(g: Multigraph, s: Iterable[int]) -> bool:
    s = frozenset(s)
    if not s:
        return False
    return odd_components_count(g, s) == len(s)


def two_separations(g: Multigraph) -> tuple[frozenset[int], ...]:
    """All pairs {u, v} with G - u - v disconnected into even components."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("2-separations live in matching covered graphs")
    out = []
    full = g.full_mask
    for u, v in combinations(range(g.n), 2):
        within = full & ~(1 << u) & ~(1 << v)
        comps = g.component_masks(within)
        if len(comps) >= 2 and all(c.bit_count() % 2 == 0 for c in comps):
            out.append(frozenset((u, v)))
    return tuple(out)
