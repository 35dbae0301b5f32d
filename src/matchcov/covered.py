"""Matching covered graphs and their removable structure.

A graph is matching covered when it is connected, has at least two
vertices, and every edge lies in some perfect matching. An edge e is
removable when G - e stays matching covered; a doubleton {e, f} is
removable when G - e - f is matching covered but neither single deletion
is. Removable classes are the singles plus the doubletons.

Every one of these questions asks which parallel classes lie in a perfect
matching that avoids some classes D. Class f depends on D when none does
(for D = {e}: every perfect matching through f uses e). A per-graph pool
of perfect matchings answers them: see `_Witnesses`. Filled to every
perfect matching, the same pool is the table that `cuts` folds, one shore
size at a time: see `pm_table`.

A miss in the pool runs `multigraph.blossom_search`, the one Edmonds
search, once: in G - D minus the class's ends, from a perfect matching of
G - D with those ends and their partners unmatched. The pool starts from the
one maximum matching kept per graph (`_max_matching`, which `matching`
reads too) when it is perfect, and so do the pair groups.

Two questions range over vertex pairs, and neither asks one pair at a
time. `pm_pair_groups` (bicriticality, maximal barriers) runs one Edmonds
search, `multigraph.blossom_search`, per group. `separating_pairs` (bricks,
2-separations) runs one breadth-first search per chunk of pairs, every pair
in a block of bits of one integer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Union

from .errors import BoundExceededError, NotMatchingCoveredError
from .multigraph import Multigraph, _bits, _reach, _two_coloring, blossom_search, per_graph, unmatched

_PM_ENUM_MAX_N = 24
# Matchings the enumeration's memo may hold. K_14's memo holds 353,522;
# K_{9,9}'s holds 986,410, and `analyze` folded its table for 26 s.
_PM_ENUM_BUDGET = 1 << 19


@dataclass(frozen=True)
class Single:
    edge: int


@dataclass(frozen=True)
class Doubleton:
    edges: tuple[int, int]


RemovableClass = Union[Single, Doubleton]


def _all_matchings(adj: list[int], index: dict, mask: int, memo: dict, held: list[int]) -> list[int]:
    """Class bitsets of every perfect matching of the vertices in `mask`,
    lowest vertex first; `memo` maps masks to lists and starts as {0: [0]}.
    The memo, not the answer, holds the memory: `held[0]` counts the
    matchings in it, and past `_PM_ENUM_BUDGET` this refuses."""
    if mask in memo:
        return memo[mask]
    low = mask & -mask
    v = low.bit_length() - 1
    out: list[int] = []
    partners = adj[v] & mask
    while partners:
        u_bit = partners & -partners
        partners ^= u_bit
        c = 1 << index[v, u_bit.bit_length() - 1]
        out += map(c.__or__, _all_matchings(adj, index, mask ^ low ^ u_bit, memo, held))
    held[0] += len(out)
    if held[0] > _PM_ENUM_BUDGET:
        raise BoundExceededError(f"perfect matching enumeration capped at {_PM_ENUM_BUDGET} matchings")
    memo[mask] = out
    return out


class _Witnesses:
    """Perfect matchings of g's underlying simple graph, kept as they are
    found, each as a bitset over parallel classes.

    "Is there a perfect matching that contains class c and avoids the
    classes D?" is first a bitset test on the pool. On a miss, one search on
    G - V(c) - D either finds a matching, which joins the pool, or proves
    that c depends on D. Nothing is enumerated up front; `fill` completes
    the pool, and no query searches after that.
    """

    def __init__(self, g: Multigraph):
        self.pairs = list(g.parallel_classes)
        self.index = {pair: c for c, pair in enumerate(self.pairs)}
        self.edge_class = [self.index[pair] for pair in g.edges]
        self.sizes = [len(ids) for ids in g.parallel_classes.values()]
        self.adj = g.adj_masks
        self.full = g.full_mask
        self.pool: list[int] = []
        self.complete = False
        self._dependents: dict[int, int] = {}
        if (pm := _perfect_matching(g)) is not None:
            self.join(pm)

    def fill(self) -> "_Witnesses":
        """Complete the pool to every perfect matching."""
        if not self.complete:
            self.pool = _all_matchings(self.adj, self.index, self.full, {0: [0]}, [0])
            self.complete = True
        return self

    def join(self, match) -> int:
        """Pool the perfect matching `match` (partners); return its classes."""
        pm = 0
        for v, u in enumerate(match):
            if v < u:
                pm |= 1 << self.index[v, u]
        self.pool.append(pm)
        return pm

    def partners(self, pm: int) -> list[int]:
        """Each vertex's partner in the classes of `pm`, or -1."""
        match = [-1] * len(self.adj)
        for c in _bits(pm):
            a, b = self.pairs[c]
            match[a], match[b] = b, a
        return match

    def adjacency_without(self, drop: int) -> list[int]:
        adj = list(self.adj)
        while drop:
            low = drop & -drop
            drop ^= low
            a, b = self.pairs[low.bit_length() - 1]
            adj[a] &= ~(1 << b)
            adj[b] &= ~(1 << a)
        return adj

    def dependents(self, drop: int) -> int:
        """Bitset of the classes outside `drop` that no perfect matching
        avoiding every class in `drop` contains."""
        if drop in self._dependents:
            return self._dependents[drop]
        cover = drop
        for pm in self.pool:
            if not pm & drop:
                cover |= pm
        missing = (1 << len(self.pairs)) - 1 & ~cover
        out = 0
        if missing and self.pool and not self.complete:
            adj = self.adjacency_without(drop) if drop else self.adj
            # A pool matching that avoids D, or else one of G - D grown from
            # a pool matching with D's classes taken out, if G - D has one.
            base = next((pm for pm in self.pool if not pm & drop), None)
            mate = self.partners(self.pool[0] & ~drop if base is None else base)
            perfect = base is not None or next(unmatched(adj, mate, self.full), None) is None
            if perfect and base is None:
                missing &= ~self.join(mate)
            while missing and perfect:
                low = missing & -missing
                missing ^= low
                a, b = self.pairs[low.bit_length() - 1]
                # Unmatched, the partners x, y of a, b are the only exposed
                # vertices of G - D - a - b, so one search from x decides.
                match = list(mate)
                x, y = match[a], match[b]
                match[a] = match[b] = match[x] = match[y] = -1
                if adj[x] >> y & 1:  # the search would take this edge first
                    match[x], match[y] = y, x
                elif blossom_search(adj, match, x, self.full ^ 1 << a ^ 1 << b):
                    out |= low
                    continue
                match[a], match[b] = b, a
                missing &= ~self.join(match)
        # Whatever is still missing lies in no perfect matching of G - D:
        # the pool holds them all, or G - D has none.
        out |= missing
        self._dependents[drop] = out
        return out

    def covered_without(self, drop: int) -> bool:
        """Is G minus every edge of the classes in `drop` matching covered?
        Connectivity is tested apart: on C4, deleting two opposite edges
        leaves every other class in a perfect matching, but two components."""
        if self.dependents(drop):
            return False
        return _reach(self.adjacency_without(drop), 0, self.full) == self.full

    def removable(self, e: int) -> bool:
        """A parallel copy always is; otherwise G - e must stay covered. G
        is matching covered (`_require_mc`): on 2 vertices it is K2, whose
        one class cannot go, and on 4 or more it is 2-connected, so G - e
        stays connected and no connectivity search is needed."""
        c = self.edge_class[e]
        return self.sizes[c] > 1 or len(self.adj) >= 4 and not self.dependents(1 << c)


@per_graph
def _max_matching(g: Multigraph) -> tuple[int, ...]:
    """The one maximum matching of g, as each vertex's partner or -1: grown
    by `unmatched` from the empty matching, once per graph."""
    match = [-1] * g.n
    for _ in unmatched(g.adj_masks, match, g.full_mask):
        pass
    return tuple(match)


@per_graph
def _perfect_matching(g: Multigraph) -> Optional[tuple[int, ...]]:
    """`_max_matching(g)` when it is perfect, or None."""
    if g.n % 2:
        return None
    match = _max_matching(g)
    return None if -1 in match else match


@per_graph
def _witnesses(g: Multigraph) -> _Witnesses:
    return _Witnesses(g)


@per_graph
def is_matching_covered(g: Multigraph) -> bool:
    if g.n < 2 or g.n % 2:
        return False
    return _witnesses(g).covered_without(0)


def pm_table(g: Multigraph) -> _Witnesses:
    """The witness pool of g, filled: the one list of perfect matchings that
    every enumeration and every cut reads. Refused past `_PM_ENUM_MAX_N`
    vertices, and past `_PM_ENUM_BUDGET` matchings held while it fills."""
    if g.n > _PM_ENUM_MAX_N:
        raise BoundExceededError(
            f"perfect matching enumeration capped at {_PM_ENUM_MAX_N} vertices"
        )
    return _witnesses(g).fill()


def _require_mc(g: Multigraph) -> _Witnesses:
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("graph is not matching covered")
    return _witnesses(g)


def is_removable_edge(g: Multigraph, e: int) -> bool:
    pool = _require_mc(g)
    g.endpoints(e)  # EdgeOutOfRangeError, where a negative id would index from the end
    return pool.removable(e)


@per_graph
def removable_edges(g: Multigraph) -> tuple[int, ...]:
    """Ascending edge ids removable one at a time."""
    pool = _require_mc(g)
    return tuple(e for e in range(g.m) if pool.removable(e))


@per_graph
def removable_doubletons(g: Multigraph) -> tuple[tuple[int, int], ...]:
    """Pairs {e, f}, neither removable alone, with G - e - f matching covered."""
    pool = _require_mc(g)
    removable = set(removable_edges(g))
    # A non-removable edge has no parallel copy, so it is a whole class.
    classes = [(e, 1 << pool.edge_class[e]) for e in range(g.m) if e not in removable]
    out = []
    for (e, ce), (f, cf) in combinations(classes, 2):
        # Whatever depends on e alone, f aside, depends on {e, f} too.
        if pool.dependents(ce) & ~cf or pool.dependents(cf) & ~ce:
            continue
        if pool.covered_without(ce | cf):
            out.append((e, f))
    return tuple(out)


def removable_classes(g: Multigraph) -> tuple[RemovableClass, ...]:
    singles = tuple(Single(e) for e in removable_edges(g))
    doubletons = tuple(Doubleton(pair) for pair in removable_doubletons(g))
    return singles + doubletons


@per_graph
def pm_pair_groups(g: Multigraph) -> tuple[int, ...]:
    """Vertex masks: the lowest vertex u in no earlier group, with each such
    v that leaves G - u - v without a perfect matching.

    One blossom search per group: G - u - v has a perfect matching exactly
    when v is outer in the search from u's partner, with a perfect matching
    of G minus u's edge as the near-perfect matching of G - u. A graph with
    no perfect matching raises NotMatchingCoveredError.
    """
    mate = _perfect_matching(g)
    if mate is None:
        raise NotMatchingCoveredError("pair groups are read from a perfect matching")
    rest = full = g.full_mask
    out = []
    while rest:
        low = rest & -rest
        u, others = low.bit_length() - 1, rest ^ low
        match = list(mate)
        match[mate[u]] = match[u] = -1
        outer = blossom_search(g.adj_masks, match, mate[u], full ^ low, others)
        group = low | others & ~outer
        rest ^= group
        out.append(group)
    return tuple(out)


# Bits per sweep of `separating_pairs`: a step costs time in the length of
# the integer, so long chunks lose more to blocks whose search is over than
# they save in steps.
_SWEEP_BITS = 8192


@lru_cache(maxsize=16)
def _sweep_chunks(n: int) -> tuple[tuple[list[tuple[int, int]], int, int, int], ...]:
    """The vertex pairs x < y in lexicographic order, cut into chunks of
    about `_SWEEP_BITS` bits. Pair p of a chunk owns bits p*n .. p*n + n - 1;
    each chunk comes with masks over those blocks: the bit at each block's
    start, the vertices of G - x - y but the lowest, and that lowest one."""
    pairs = list(combinations(range(n), 2))
    step = max(1, _SWEEP_BITS // max(n, 1))
    out = []
    for first in range(0, len(pairs), step):
        chunk = pairs[first:first + step]
        starts = unseen = start = 0
        for p, (x, y) in enumerate(chunk):
            rest = (1 << n) - 1 ^ 1 << x ^ 1 << y
            starts |= 1 << p * n
            unseen |= (rest & rest - 1) << p * n
            start |= (rest & -rest) << p * n
        out.append((chunk, starts, unseen, start))
    return tuple(out)


def separating_pairs(g: Multigraph) -> Iterator[tuple[int, int]]:
    """Pairs x < y with G - x - y disconnected, in lexicographic order.

    One breadth-first search per chunk of `_sweep_chunks` runs in every
    block at once, from the lowest vertex left. A step spreads each vertex
    v on the frontier of some block into every block where it is, by
    multiplying adj[v] by those blocks' start bits; the vertices to step
    from are the union of the blocks, folded in log(pairs) shift-ors.
    """
    n, adj, full = g.n, g.adj_masks, g.full_mask
    for chunk, starts, unseen, frontier in _sweep_chunks(n):
        width = n * len(chunk)
        while frontier:
            union, shift = frontier, n
            while shift < width:
                union |= union >> shift
                shift <<= 1
            new = 0
            for v in _bits(union & full):
                new |= (frontier >> v & starts) * adj[v]
            frontier = new & unseen
            unseen ^= frontier
        while unseen:
            p = ((unseen & -unseen).bit_length() - 1) // n
            yield chunk[p]
            unseen &= ~(full << p * n)


@per_graph
def is_bicritical(g: Multigraph) -> bool:
    """Every G - u - v has a perfect matching (each group one vertex); n >= 4.

    Such a G has one too: for an edge uv, one of G - u - v plus uv. So a G
    without one is answered at once, and the groups start from a perfect
    matching.
    """
    if g.n < 4 or g.n % 2 or _perfect_matching(g) is None:
        return False
    return all(group & group - 1 == 0 for group in pm_pair_groups(g))


@per_graph
def is_brick(g: Multigraph) -> bool:
    """3-connected and bicritical.

    A bicritical graph is connected and has no cut vertex (deleting a cut
    vertex and a vertex of one component leaves some component odd), so
    3-connectivity only asks that no two vertices separate it.
    """
    return is_bicritical(g) and next(separating_pairs(g), None) is None


def is_minimal_mc(g: Multigraph) -> bool:
    """Matching covered with no removable edge. A parallel copy always is
    one (`_Witnesses.removable`), so a multigraph is answered with no
    search; otherwise the scan stops at the first removable edge."""
    if not is_matching_covered(g):
        return False
    pool = _witnesses(g)
    return max(pool.sizes) == 1 and not any(map(pool.removable, range(g.m)))


def is_near_bipartite(g: Multigraph) -> Optional[tuple[int, int]]:
    """A pair {e, f} whose removal leaves a bipartite matching covered graph.

    None when no pair works (in particular for bipartite input). Pairs are
    screened by 2-colorability before the covered test, cheapest first.

    Only two edges without parallel copies can work. A pair that empties no
    class leaves the odd cycles of G; one that empties one class uv leaves
    a bipartite G - uv only if u and v lie on one side, and then G - uv has
    no perfect matching, or uv lies in none of G's, since a matching through
    uv takes two vertices from that side.
    """
    pool = _require_mc(g)
    if g.is_bipartite():
        return None
    cls, sizes = pool.edge_class, pool.sizes
    singles = [e for e in range(g.m) if sizes[cls[e]] == 1]
    for e, f in combinations(singles, 2):
        drop = 1 << cls[e] | 1 << cls[f]
        if _two_coloring(pool.adjacency_without(drop)) is not None and pool.covered_without(drop):
            return (e, f)
    return None


def has_two_nonadjacent_removable_edges(g: Multigraph) -> bool:
    rem = removable_edges(g)
    for e, f in combinations(rem, 2):
        a, b = g.endpoints(e)
        c, d = g.endpoints(f)
        if len({a, b, c, d}) == 4:
            return True
    return False
