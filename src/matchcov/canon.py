"""Canonical forms, isomorphism, and automorphisms for multigraphs.

Canonical labeling runs iterative color refinement and then backtracks over
individualizations of the first smallest non-singleton cell, taking the
lexicographically least edge encoding over all discrete leaves. Each
vertex's (neighbour, multiplicity) list is built once per graph and serves
every refinement round of the search; `automorphisms` starts from the same
refinement. Edge multiplicities are folded into the initial invariant, the
refinement signatures, and the leaf encoding, so two multigraphs share a
canonical form exactly when they are isomorphic as multigraphs.

The only search pruning is the twin test: if two cell members have
identical multiplicity rows, their transposition is an automorphism and
one branch is skipped. That keeps complete and near-complete graphs linear
instead of factorial without touching correctness.
"""
from __future__ import annotations

from .errors import BoundExceededError
from .multigraph import Multigraph, per_graph


def _equitable(nbrs: list, colors: list[int], scale: int) -> list[int]:
    """Refine dense colors until no cell splits.

    A vertex's signature is its color, then its neighbours' (color,
    multiplicity) pairs in sorted order, each packed as color * scale +
    multiplicity (scale exceeds every multiplicity, so the packing keeps
    the pair order). New colors rank the distinct signatures.
    """
    cells = len(set(colors))
    while cells < len(colors):
        packed = [c * scale for c in colors]
        sigs = [
            (colors[v], *sorted([packed[u] + cnt for u, cnt in around]))
            for v, around in enumerate(nbrs)
        ]
        order = sorted(set(sigs))
        if len(order) == cells:
            break
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        cells = len(order)
    return colors


def _start(g: Multigraph) -> tuple[list, int, list[int]]:
    """(neighbour lists, packing scale, equitable initial colors).

    The initial invariant is the degree, then the sorted incident
    multiplicities.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for (u, v), cnt in g._mult.items():
        nbrs[u].append((v, cnt))
        nbrs[v].append((u, cnt))
    scale = max(g._mult.values(), default=0) + 1
    keys = [(g.degrees[v], tuple(sorted(c for _, c in nbrs[v]))) for v in range(g.n)]
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return nbrs, scale, _equitable(nbrs, [rank[k] for k in keys], scale)


def _twins(g: Multigraph, u: int, w: int) -> bool:
    mult = g._mult
    for x in range(g.n):
        if x == u or x == w:
            continue
        a = mult.get((u, x) if u < x else (x, u), 0)
        b = mult.get((w, x) if w < x else (x, w), 0)
        if a != b:
            return False
    return True


def canonical_labeling(g: Multigraph) -> tuple[tuple[int, ...], bytes]:
    """(position permutation old->new, canonical byte form).

    The form is n, then one (i, j, multiplicity) byte triple per adjacent
    position pair i < j in ascending order; a multiplicity of 255 or more
    is written as the byte 255 followed by the count in 8 bytes.
    """
    n = g.n
    if n == 0:
        return (), bytes([0])
    if n > 255:
        raise BoundExceededError(f"canonical forms cover at most 255 vertices, got {n}")
    nbrs, scale, start = _start(g)
    rows = [
        (u, v, bytes((cnt,)) if cnt < 255 else b"\xff" + cnt.to_bytes(8, "big"))
        for (u, v), cnt in g._mult.items()
    ]
    best: list = [None, None]

    def rec(colors: list[int]) -> None:
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            triples = sorted(
                (colors[u], colors[v], t) if colors[u] < colors[v] else (colors[v], colors[u], t)
                for u, v, t in rows
            )
            cand = bytes([n]) + b"".join(bytes((i, j)) + t for i, j, t in triples)
            if best[1] is None or cand < best[1]:
                best[0] = tuple(colors)
                best[1] = cand
            return
        target = min((c for c in cells if len(cells[c]) > 1), key=lambda c: (len(cells[c]), c))
        reps: list[int] = []
        for v in cells[target]:
            if any(_twins(g, v, w) for w in reps):
                continue
            reps.append(v)
            # v gets a cell of its own, just before the rest of its old cell.
            split = [c + (c > target or (c == target and x != v)) for x, c in enumerate(colors)]
            rec(_equitable(nbrs, split, scale))

    rec(start)
    return best[0], best[1]


@per_graph
def canonical_form(g: Multigraph) -> bytes:
    return canonical_labeling(g)[1]


def is_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees) != sorted(h.degrees):
        return False
    return canonical_form(g) == canonical_form(h)


def automorphisms(g: Multigraph) -> list[tuple[int, ...]]:
    """All color-respecting adjacency-preserving vertex permutations.

    Intended for the small graphs (wheels, splice factors) where orbit
    reductions happen; the full list is materialized.
    """
    n = g.n
    if n == 0:
        return [()]
    colors = _start(g)[2]
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    mult = g._mult

    out: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(image))
            return
        for w in by_color[colors[v]]:
            if used[w]:
                continue
            ok = True
            for u in range(v):
                a = mult.get((u, v) if u < v else (v, u), 0)
                iu, iw = image[u], w
                b = mult.get((iu, iw) if iu < iw else (iw, iu), 0)
                if a != b:
                    ok = False
                    break
            if ok:
                used[w] = True
                image[v] = w
                extend(v + 1)
                used[w] = False
                image[v] = -1

    extend(0)
    return out


def vertex_orbits(g: Multigraph) -> list[frozenset[int]]:
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for perm in automorphisms(g):
        for v, w in enumerate(perm):
            ra, rb = find(v), find(w)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(s) for s in sorted(groups.values(), key=min)]
