"""Edge cuts of matching covered graphs and the barrier machinery.

A cut is named by a shore X; its boundary is every edge slot with exactly
one end in X. Cuts are read from the graph's table of perfect matchings
(`covered.pm_table`), with no contraction: tight when every matching
crosses once, separating when every class lies in a matching that does
(Carvalho, Lucchesi and Murty, "On a conjecture of Lovasz concerning
bricks I", JCTB 2002).

One way in: `cut_shore_sets` folds all nontrivial odd shores of one size
at once, one pass over the matchings per size, into bitsets indexed by the
shores in `_shores_of_size` order (see `_shore_block`). The folds are kept
per graph and extended lazily, so each size is folded once, whichever
reader reaches it first. Only this module reads the folds: `tight_shores`
(and so `is_brace`), `separating_shores` (and so `search_G_certificate`),
`has_robust_cut`, `is_solid`, and for one shore `is_tight`, `is_separating`
and `is_robust`, which read its bit. Maximal barriers and 2-separations
walk no vertex pairs of their own: they read `covered.pm_pair_groups` and
`covered.separating_pairs`, so only the brute-force oracle `barriers` keeps
a vertex cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from typing import Iterable, Iterator

from .covered import is_matching_covered, pm_pair_groups, pm_table, separating_pairs
from .errors import BoundExceededError, EmptyShoreError, NotMatchingCoveredError
from .errors import VertexOutOfRangeError
from .matching import has_perfect_matching
from .multigraph import Multigraph, bits, mask_of, per_graph

_BARRIER_MAX_N = 16
_SOLID_MAX_N = 14


@dataclass(frozen=True)
class Barrier:
    vertices: frozenset[int]
    odd_components: tuple[frozenset[int], ...]


def _shore(g: Multigraph, shore: Iterable[int]) -> frozenset[int]:
    x = frozenset(shore)
    if not x or len(x) >= g.n:
        raise EmptyShoreError("shore must be a nonempty proper vertex subset")
    if min(x) < 0 or max(x) >= g.n:
        raise VertexOutOfRangeError(f"shore {sorted(x)} outside 0..{g.n - 1}")
    return x


def _verdicts(g: Multigraph, shore: Iterable[int]) -> tuple[bool, bool]:
    """(tight, separating) for the cut of a shore, g matching covered. A
    trivial cut is both and an even one neither (every matching crosses it
    an even number of times, and some crosses it); an odd nontrivial cut is
    read from the fold of its shore's size, from the side holding vertex 0."""
    x = _shore(g, shore)
    if len(x) in (1, g.n - 1):
        return True, True
    if len(x) % 2 == 0:
        return False, False
    if 0 not in x:
        x = frozenset(range(g.n)) - x
    member = _shore_block(g.n, len(x))
    at = member[0]
    for v in x:
        at &= member[v]  # shores of one size: only X holds all of X
    tight, separating = next((t, s) for size, t, s in cut_shore_sets(g) if size == len(x))
    return bool(tight & at), bool(separating & at)


def is_tight(g: Multigraph, shore: Iterable[int]) -> bool:
    """Every perfect matching contains exactly one boundary edge."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("tightness is defined on matching covered graphs")
    return _verdicts(g, shore)[0]


def contractions(g: Multigraph, shore: Iterable[int]) -> tuple[Multigraph, Multigraph]:
    """(G with complement contracted, G with shore contracted)."""
    x = _shore(g, shore)
    return g.contract(frozenset(range(g.n)) - x), g.contract(x)


def is_separating(g: Multigraph, shore: Iterable[int]) -> bool:
    """Both shore contractions are matching covered: for an odd shore,
    every class lies in a perfect matching that crosses the cut once."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("separating cuts live in matching covered graphs")
    return _verdicts(g, shore)[1]


def _odd_shores(n: int) -> Iterator[tuple[int, ...]]:
    """One shore X per nontrivial odd cut, 3 <= |X| <= n - 3: the one
    holding vertex 0, in (size, sorted vertex tuple) order."""
    for size in range(3, n - 2, 2):
        yield from _shores_of_size(n, size)


def _shores_of_size(n: int, size: int) -> Iterator[tuple[int, ...]]:
    """The shores of `_odd_shores(n)` of one size, in the order that
    `_shore_block(n, size)` numbers them."""
    return ((0,) + combo for combo in combinations(range(1, n), size - 1))


def _shores_in(n: int, size: int, shore_set: int) -> Iterator[tuple[int, ...]]:
    """The shores of `_shores_of_size(n, size)` whose bits are set in
    `shore_set`."""
    return compress(_shores_of_size(n, size), map("1".__eq__, bin(shore_set)[:1:-1]))


@lru_cache(maxsize=16)
def _shore_block(n: int, size: int) -> tuple[int, ...]:
    """member[v] over `_shores_of_size(n, size)`: bit i says whether the
    i-th shore holds v. member[0] has every bit.

    The 16 blocks kept hold every size of every even order up to
    `_SOLID_MAX_N`; at n = 24 one block is up to 4 MB.
    """
    k = size - 1
    # col[lo]: (count, member) over the j-subsets of lo..n-1 in
    # lexicographic order, those holding lo before those without it. Only
    # the lo a k-subset of 1..n-1 reaches are filled; j runs up to k.
    col = [(1, [0] * n)] * (n + 1)
    for j in range(1, k + 1):
        prev, col = col, [(0, [0] * n)] * (n + 1)
        for lo in range(n - j, k - j, -1):
            first, holding = prev[lo + 1]
            rest, missing = col[lo + 1]
            member = [a | b << first for a, b in zip(holding, missing)]
            member[lo] = (1 << first) - 1
            col[lo] = first + rest, member
    count, member = col[1]
    return ((1 << count) - 1,) + tuple(member[1:])


@per_graph
def _folds(g: Multigraph) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """The classes of each matching of `pm_table(g)`, and the sizes folded
    so far. The table is filled first, so past its cap this raises every
    time and keeps nothing."""
    return [bits(pm) for pm in pm_table(g).pool], []


def cut_shore_sets(g: Multigraph) -> Iterator[tuple[int, int, int]]:
    """(size, tight, separating) per shore size, ascending: bitsets over
    `_shores_of_size(g.n, size)`; g must be matching covered. One size at
    a time, so a caller stops at the first size that answers it. Each size
    is folded once per graph: a reader goes over the sizes folded before
    it, and folds a size only when no reader has.

    A matching crosses an odd shore an odd number of times, so a shore it
    does not cross twice or more it crosses exactly once.
    """
    pms, folded = _folds(g)
    for i, size in enumerate(range(3, g.n - 2, 2)):
        if i < len(folded):
            yield folded[i]
            continue
        member = _shore_block(g.n, size)
        every = member[0]
        crossing = [member[a] ^ member[b] for a, b in g.parallel_classes]
        crossed_twice = 0
        # reach[c]: the shores crossed exactly once by some matching holding c
        reach = [0] * len(crossing)
        for classes in pms:
            once = twice = 0
            for c in classes:
                twice |= once & crossing[c]
                once |= crossing[c]
            crossed_twice |= twice
            exactly_once = every & ~twice
            for c in classes:
                reach[c] |= exactly_once
        separating = every
        for shores in reach:
            separating &= shores
        folded.append((size, every & ~crossed_twice, separating))
        yield folded[i]


def tight_shores(g: Multigraph) -> Iterator[frozenset[int]]:
    """The nontrivial tight shores of `_odd_shores(g.n)`, in order, folded
    one size at a time."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("tight cuts live in matching covered graphs")
    for size, tight, _separating in cut_shore_sets(g):
        yield from map(frozenset, _shores_in(g.n, size, tight))


def separating_shores(g: Multigraph) -> Iterator[tuple[int, ...]]:
    """The nontrivial separating shores of `_odd_shores(g.n)`, in order,
    folded one size at a time; g must be matching covered."""
    for size, _tight, separating in cut_shore_sets(g):
        yield from _shores_in(g.n, size, separating)


def is_robust(g: Multigraph, shore: Iterable[int]) -> bool:
    """Separating, not tight, and both contractions are near-bricks."""
    from .decomposition import is_near_brick

    if not is_matching_covered(g):
        raise NotMatchingCoveredError("separating cuts live in matching covered graphs")
    x = frozenset(shore)
    tight, separating = _verdicts(g, x)
    if tight or not separating:
        return False
    a, b = contractions(g, x)
    return is_near_brick(a) and is_near_brick(b)


def has_robust_cut(g: Multigraph) -> bool:
    """Some nontrivial odd cut is robust. A cut is robust from either shore,
    so one shore per cut will do; a robust cut is separating and not tight."""
    return any(
        is_robust(g, x)
        for size, tight, separating in cut_shore_sets(g)
        for x in _shores_in(g.n, size, separating & ~tight)
    )


def is_solid(g: Multigraph) -> bool:
    """Every separating cut is tight: no shore of the folds is separating
    and not tight."""
    if g.n > _SOLID_MAX_N:
        raise BoundExceededError(f"solidity check capped at {_SOLID_MAX_N} vertices")
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("solidity is defined on matching covered graphs")
    return not any(separating & ~tight for _size, tight, separating in cut_shore_sets(g))


def _barrier(g: Multigraph, s_mask: int) -> Barrier:
    """S with the odd components of G - S, barrier or not."""
    odd = [c for c in g.component_masks(g.full_mask ^ s_mask) if c.bit_count() % 2]
    return Barrier(frozenset(bits(s_mask)), tuple(frozenset(bits(c)) for c in odd))


def barriers(g: Multigraph) -> Iterator[Barrier]:
    """All barriers: nonempty S with o(G - S) = |S|, in (size, sorted
    vertices) order.

    Requires a graph with a perfect matching. Only the definitional cuts are
    applied (|S| <= n/2 and parity), so independence of barriers stays a
    checkable property downstream rather than an assumption.
    """
    if g.n > _BARRIER_MAX_N:
        raise BoundExceededError(f"barrier enumeration capped at {_BARRIER_MAX_N} vertices")
    if not has_perfect_matching(g):
        raise NotMatchingCoveredError("barriers are defined for graphs with a perfect matching")
    for size in range(1, g.n // 2 + 1):
        for combo in combinations(range(g.n), size):
            b = _barrier(g, mask_of(combo))
            if len(b.odd_components) == size:
                yield b


def maximal_barriers(g: Multigraph) -> tuple[Barrier, ...]:
    """In (size, sorted vertices) order. In a matching covered graph they
    partition V, u and v sharing one when G - u - v has no perfect matching
    (Kotzig and Lovasz; Lovasz and Plummer, Matching Theory, 5.2). One
    search per group, so no vertex cap."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("maximal barriers are read off matching covered graphs")
    out = [_barrier(g, group) for group in pm_pair_groups(g)]
    return tuple(sorted(out, key=lambda b: (len(b.vertices), sorted(b.vertices))))


def is_barrier(g: Multigraph, s: Iterable[int]) -> bool:
    s = frozenset(s)
    if not s:
        return False
    if min(s) < 0 or max(s) >= g.n:
        raise VertexOutOfRangeError(f"vertices {sorted(s)} outside 0..{g.n - 1}")
    return len(_barrier(g, mask_of(s)).odd_components) == len(s)


def two_separations(g: Multigraph) -> tuple[frozenset[int], ...]:
    """All pairs {u, v} with G - u - v disconnected into even components."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("2-separations live in matching covered graphs")
    return tuple(
        frozenset((u, v))
        for u, v in separating_pairs(g)
        if all(c.bit_count() % 2 == 0 for c in g.component_masks(g.full_mask ^ 1 << u ^ 1 << v))
    )
