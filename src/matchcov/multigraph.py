"""Loop-free multigraph on dense integer vertex ids.

Instances are immutable after construction: every operation returns a new
graph. Parallel edges are distinct edge ids with equal endpoint pairs, so
edge id i always means position i of the edge list handed to the
constructor. Bitmask adjacency over the underlying simple graph backs the
kernels that the rest of the library leans on: `blossom_search`, the one
Edmonds search, which answers every perfect-matching question; `unmatched`,
which grows a matching by that search from each exposed vertex (maximum
matchings, `Multigraph.has_pm_mask`); and reachability.

One caching rule: whatever is derived from a graph is kept on that graph,
in its instance dict, and nowhere else. Inside the class that is
`functools.cached_property`; a function of a graph in another module
takes the `per_graph` decorator. Since a graph never changes, the value
stays valid for the graph's lifetime, and it goes when the graph goes.
"""
from __future__ import annotations

from functools import cached_property, wraps
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    EdgeOutOfRangeError,
    EmptyShoreError,
    LoopEdgeError,
    VertexOutOfRangeError,
)

class Multigraph:
    """n vertices (0..n-1) plus an ordered tuple of undirected edges."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise VertexOutOfRangeError(f"vertex count {n} is negative")
        norm = []
        for u, v in edges:
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            norm.append((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        if not (0 <= e < len(self.edges)):
            raise EdgeOutOfRangeError(f"edge id {e} outside 0..{len(self.edges) - 1}")
        return self.edges[e]

    @cached_property
    def _mult(self) -> dict[tuple[int, int], int]:
        mult: dict[tuple[int, int], int] = {}
        for pair in self.edges:
            mult[pair] = mult.get(pair, 0) + 1
        return mult

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self._mult.get((u, v), 0)

    @cached_property
    def parallel_classes(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Endpoint pair -> ascending edge ids realizing it."""
        classes: dict[tuple[int, int], list[int]] = {}
        for e, pair in enumerate(self.edges):
            classes.setdefault(pair, []).append(e)
        return {pair: tuple(ids) for pair, ids in classes.items()}

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Underlying-simple adjacency as one bitmask per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """Degree with multiplicity, per vertex."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
        return self.degrees[v]

    def neighbors(self, v: int) -> frozenset[int]:
        if not (0 <= v < self.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
        return frozenset(_bits(self.adj_masks[v]))

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Ascending edge ids touching each vertex."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(e)
            inc[v].append(e)
        return tuple(tuple(ids) for ids in inc)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def min_degree(self) -> int:
        return min(self.degrees, default=0)

    def is_simple(self) -> bool:
        return all(c == 1 for c in self._mult.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"

    # -- connectivity kernels ----------------------------------------------

    def component_mask(self, start: int, within: Optional[int] = None) -> int:
        """Bitmask of the component of `start` inside the induced mask."""
        if within is None:
            within = self.full_mask
        return _reach(self.adj_masks, start, within)

    def component_masks(self, within: Optional[int] = None) -> list[int]:
        if within is None:
            within = self.full_mask
        out = []
        rest = within
        while rest:
            v = (rest & -rest).bit_length() - 1
            comp = self.component_mask(v, within)
            out.append(comp)
            rest &= ~comp
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return self.component_mask(0) == self.full_mask

    def is_bipartite(self) -> bool:
        return self._coloring is not None

    def two_coloring(self) -> Optional[tuple[int, ...]]:
        """0/1 coloring with adjacent vertices distinct, or None."""
        return self._coloring

    @cached_property
    def _coloring(self) -> Optional[tuple[int, ...]]:
        return _two_coloring(self.adj_masks)

    # -- perfect matching kernel --------------------------------------------

    def has_pm_mask(self, mask: int) -> bool:
        """Does the induced subgraph on `mask` have a perfect matching?"""
        return next(unmatched(self.adj_masks, [-1] * self.n, mask), None) is None

    # -- derived graphs ------------------------------------------------------

    def delete_edges(self, edge_ids: Iterable[int]) -> "Multigraph":
        drop = set(edge_ids)
        for e in drop:
            if not (0 <= e < len(self.edges)):
                raise EdgeOutOfRangeError(f"edge id {e} outside 0..{len(self.edges) - 1}")
        kept = tuple(pair for e, pair in enumerate(self.edges) if e not in drop)
        return Multigraph(self.n, kept)

    def underlying_simple(self) -> "Multigraph":
        seen = set()
        kept = []
        for pair in self.edges:
            if pair not in seen:
                seen.add(pair)
                kept.append(pair)
        return Multigraph(self.n, kept)

    def contract(self, shore: Iterable[int]) -> "Multigraph":
        """Contract the shore to a single (last) vertex.

        Kept vertices preserve relative order at ids 0..k-1; the contracted
        vertex is k. Internal shore edges vanish.
        """
        x = set(shore)
        if not x or len(x) >= self.n:
            raise EmptyShoreError("shore must be a nonempty proper vertex subset")
        for v in x:
            if not (0 <= v < self.n):
                raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
        kept = [v for v in range(self.n) if v not in x]
        remap = {v: i for i, v in enumerate(kept)}
        cvx = len(kept)
        new_edges = [
            (cvx if u in x else remap[u], cvx if v in x else remap[v])
            for u, v in self.edges
            if u not in x or v not in x
        ]
        return Multigraph(cvx + 1, new_edges)

    def induced(self, keep: Sequence[int]) -> "Multigraph":
        """Induced subgraph on `keep`, renumbered in the given order."""
        remap = {}
        for i, v in enumerate(keep):
            if not (0 <= v < self.n):
                raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")
            remap[v] = i
        kept_edges = [
            (remap[u], remap[v])
            for (u, v) in self.edges
            if u in remap and v in remap
        ]
        return Multigraph(len(keep), kept_edges)

    def relabeled(self, perm: Sequence[int]) -> "Multigraph":
        """Image under vertex permutation (perm[v] is the new id of v)."""
        return Multigraph(self.n, [(perm[u], perm[v]) for u, v in self.edges])


def blossom_search(adj: Sequence[int], match: list[int], root: int, within: int, goal: int = -1) -> int:
    """Edmonds' search for an augmenting path from the exposed vertex `root`
    inside the vertex set `within`, over the adjacency masks `adj`, breadth
    first with blossom shrinking ("Paths, trees, and flowers", 1965).

    `match` maps each vertex to its partner, or to -1. A path found is
    flipped into `match` and the result is 0. Otherwise the result is the
    mask of outer vertices, those an even alternating path from `root`
    reaches. When `root` is the only vertex that a maximum matching leaves
    exposed, the outer vertices are exactly the v for which `within` minus v
    has a perfect matching: D in the Gallai-Edmonds decomposition
    (Lovasz and Plummer, Matching Theory, 3.2). The search stops once every
    vertex of `goal` is outer; the default, -1, never stops it.
    """
    n = len(adj)
    # parent[x]: where an inner x was reached from, and on blossom paths
    # the way back round for outer vertices too; base[x]: x's blossom.
    parent = [-1] * n
    base = list(range(n))
    outer = 1 << root
    queue = [root]
    for v in queue:
        if not goal & ~outer:
            break
        nbrs = adj[v] & within
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            if outer >> to & 1:
                # A blossom: its base is the lowest common ancestor of v and
                # to, and each vertex whose base lies on either path joins it.
                path, a = 0, v
                while True:
                    a = base[a]
                    path |= 1 << a
                    if match[a] == -1:
                        break
                    a = parent[match[a]]
                a = to
                while not path >> base[a] & 1:
                    a = parent[match[base[a]]]
                top, blossom = base[a], 0
                for a, child in ((v, to), (to, v)):
                    while base[a] != top:
                        blossom |= 1 << base[a] | 1 << base[match[a]]
                        parent[a] = child
                        child = match[a]
                        a = parent[child]
                for i in range(n):
                    if blossom >> base[i] & 1:
                        base[i] = top
                        if not outer >> i & 1:
                            outer |= 1 << i
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    while to != -1:
                        v = parent[to]
                        nxt = match[v]
                        match[to], match[v] = v, to
                        to = nxt
                    return 0
                outer |= 1 << match[to]
                queue.append(match[to])
    return outer


def unmatched(adj: Sequence[int], match: list[int], within: int) -> Iterator[int]:
    """Grow `match` inside the vertex set `within` by a `blossom_search`
    from each exposed vertex, lowest first, and yield each one that no
    augmenting path reaches. No later augmentation reaches it either, so the
    first one yielded proves that `within` has no perfect matching, and when
    none comes, `match` is one."""
    for v in _bits(within):
        if match[v] == -1 and blossom_search(adj, match, v, within):
            yield v


def _reach(adj: Sequence[int], start: int, within: int) -> int:
    """Bitmask of the vertices reachable from `start` inside `within`, over
    the adjacency masks `adj`."""
    seen = 1 << start
    frontier = seen
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = adj[v] & within & ~seen
        seen |= new
        frontier |= new
    return seen


def _two_coloring(adj: Sequence[int]) -> Optional[tuple[int, ...]]:
    """0/1 coloring over the adjacency masks `adj`, or None when some odd
    cycle forbids one."""
    color = [-1] * len(adj)
    for s in range(len(adj)):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in _bits(adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return tuple(color)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits(mask: int) -> list[int]:
    """Ascending vertex ids set in a bitmask."""
    return list(_bits(mask))


def mask_of(vertices: Iterable[int]) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def per_graph(fn: Callable) -> Callable:
    """Cache fn(g) on g itself, the way `cached_property` caches a method.

    The key is fn's dotted module path, which no attribute name can take.
    A call that raises caches nothing.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(g: Multigraph):
        memo = g.__dict__
        if key in memo:
            return memo[key]
        value = memo[key] = fn(g)
        return value

    return cached


def vertex_connectivity(g: Multigraph) -> int:
    """Minimum vertices whose removal disconnects g or leaves one vertex.

    Returns 0 for disconnected or trivial graphs. A brute-force walk over
    vertex subsets, kept as the reference the tests hold `is_brick` to.
    """
    from itertools import combinations

    n = g.n
    if n <= 1:
        return 0
    if not g.is_connected():
        return 0
    simple = g.underlying_simple()
    full = simple.full_mask
    for k in range(1, n):
        if n - k <= 1:
            return k
        for cut in combinations(range(n), k):
            within = full & ~mask_of(cut)
            start = (within & -within).bit_length() - 1
            if simple.component_mask(start, within) != within:
                return k
    return n - 1
