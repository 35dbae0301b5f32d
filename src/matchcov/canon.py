"""Canonical forms, isomorphism, and automorphisms for multigraphs.

Canonical labeling runs iterative color refinement and then backtracks over
individualizations of the first smallest non-singleton cell, taking the
lexicographically least edge encoding over all discrete leaves. Each
vertex's neighbour list is built once per graph and serves every
refinement round of the search. That search is the only one: the leaves
that tie the best one and the twin swaps that pruned branches generate
the automorphism group (see `automorphisms`). Edge multiplicities are
folded into the initial invariant, the refinement signatures, and the leaf
encoding, so two multigraphs share a canonical form exactly when they are
isomorphic as multigraphs.

The search has a core and a front end. The core, `_search`, takes plain
lists: neighbour lists, (u, v, multiplicity) edges, multiplicity rows and
initial invariants. `_start` builds them from a `Multigraph`; the
enumerator in `generate` builds a child's from its parent's instead, and
calls the core with no graph object. Each graph has one search record,
`_record`, kept per graph: its labelling, its byte form and its
automorphism generators. `canonical_labeling`, `canonical_form` and
`automorphisms` all read it, so a graph is searched at most once.

Refinement ranks per cell. A round's new colors are, by definition, the
ranks of the distinct signatures (color, *sorted packed neighbours) over
all vertices. Every signature starts with the vertex's color, so that
global order sorts by old cell first: a vertex's new color is the number
of parts that earlier cells split into (a running offset) plus its rank
within its own cell. So each cell is ranked on its own, without the color
prefix, and a singleton cell, which cannot split, needs no signature at
all. A neighbour is packed as color * scale + multiplicity; in a simple
graph that is 2 * color + 1, which orders like the color, so the plain
neighbour colors serve.

Leaves compare as integers: a leaf is the sorted list of one
i << (8 + lo) | j << lo | multiplicity per adjacent pair, lo = max(8, bit
length of the top multiplicity + 1). That orders leaves as their bytes even
with the escape: the byte 255 sorts above any smaller multiplicity, and the
8 big-endian bytes after it sort numerically. Only the winner is encoded.

The search prunes by twins: if two cell members have identical
multiplicity rows, their transposition is an automorphism and one branch
is skipped; the search records the swap as a generator. A cell whose
members are all twins of its first one is split into singletons in member
order in one step, with no refinement: individualizing a twin splits no
other cell, so the one-by-one search would take the same single path. So
a complete graph, a star or an edgeless graph takes one refinement round.
Row u against row w with its entries u and w swapped is one list
comparison.

An enumerator passes the forms it keeps: the search stops at its first
leaf that is one of them, which proves the graph a duplicate (McKay, J.
Algorithms 1998; McKay and Piperno, J. Symb. Comput. 2014). A new graph
hits none and is searched to the end, with the same result as without.

`orbit_representatives` is the one orderly generator: given position
permutations, it builds only the tuples that are the least of their
images, dropping a prefix once a permutation provably maps it lower. The
multiplicity vectors of `generate`, and the spoke vectors and class
matrices of `wheels`, are built with it.
"""
from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Callable, Container, Iterable, Iterator, Sequence

from .errors import BoundExceededError
from .multigraph import Multigraph, per_graph

_CANON_MAX_N = 255  # the form writes n and each position in one byte


def _equitable(
    nbrs: list, colors: list[int], cells: list, scale: int
) -> tuple[list[int], list | None]:
    """Refine dense colors until no cell splits: (colors, cells in color
    order, or None once the colors are discrete).

    cells lists each color's members in ascending order; colors is
    updated in place. Only members of non-singleton cells get a signature:
    their neighbours' colors in sorted order, each packed as color * scale
    + multiplicity (plain colors for simple graphs). A split cell is
    replaced by its parts in signature order, so a part's new color is
    its index in `out`: the running offset plus its rank in the cell.
    """
    n = len(colors)
    while len(cells) < n:
        out: list[list[int]] = []
        first = -1
        for members in cells:
            if len(members) == 1:
                out.append(members)
                continue
            if scale == 2:
                sigs = [sorted(map(colors.__getitem__, nbrs[v])) for v in members]
            else:
                sigs = [sorted([colors[u] * scale + cnt for u, cnt in nbrs[v]]) for v in members]
            if sigs.count(sigs[0]) == len(sigs):
                out.append(members)
                continue
            if first < 0:
                first = len(out)
            prev = None
            for sig, v in sorted(zip(sigs, members)):
                if sig != prev:
                    prev = sig
                    part = [v]
                    out.append(part)
                else:
                    part.append(v)
        if first < 0:
            return colors, cells
        for c in range(first, len(out)):
            for v in out[c]:
                colors[v] = c
        cells = out
    return colors, None


def _start(g: Multigraph) -> tuple[list, list, list, list, int]:
    """`_search`'s input from a graph: (neighbour lists, (u, v,
    multiplicity) edges, rows, initial invariants, packing scale).

    The initial invariant is the degree, then the sorted incident
    multiplicities. A simple graph (scale 2) keeps plain neighbour lists
    and the degree alone, a multigraph (neighbour, multiplicity) pairs.
    """
    mult = g._mult
    scale = max(mult.values(), default=0) + 1
    nbrs: list[list] = [[] for _ in range(g.n)]
    if scale == 2:
        for u, v in mult:
            nbrs[u].append(v)
            nbrs[v].append(u)
        keys: list = [len(around) for around in nbrs]
    else:
        for (u, v), cnt in mult.items():
            nbrs[u].append((v, cnt))
            nbrs[v].append((u, cnt))
        keys = [(g.degrees[v], tuple(sorted(c for _, c in nbrs[v]))) for v in range(g.n)]
    edges = [(u, v, cnt) for (u, v), cnt in mult.items()]
    return nbrs, edges, _rows(g), keys, scale


def _rows(g: Multigraph) -> list[list[int]]:
    """The multiplicity matrix as one row per vertex."""
    rows = [[0] * g.n for _ in range(g.n)]
    for (u, v), cnt in g._mult.items():
        rows[u][v] = rows[v][u] = cnt
    return rows


def _twins(rows: list[list[int]], u: int, w: int) -> bool:
    """u and w have equal multiplicities to every other vertex: row u
    equals row w with its entries u and w swapped."""
    swapped = rows[w][:]
    swapped[u], swapped[w] = swapped[w], swapped[u]
    return swapped == rows[u]


def _search(
    nbrs: list, edges: list, rows: list, keys: list, scale: int, known: Container[bytes] | None = None
) -> tuple[tuple[int, ...], list[int], int, tuple] | None:
    """The labelling search over 1 to 255 vertices, given as `_start`
    gives them: (best leaf, its packed encoding, the encoding's low-field
    width lo, automorphism generators). A leaf is a color list, old
    position -> new. The generators are b^-1 composed with each leaf that
    ties the best leaf b, and the transposition (v w) of each twin swap
    whose branch v was skipped for w's (see `automorphisms`).

    known, if given, holds `_packed` canonical forms, and the search
    returns None at its first leaf in known. Only a leaf below the best so
    far is looked up: a form is the least leaf of its graph's search, and
    isomorphic graphs have the same leaves."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    colors = [rank[k] for k in keys]
    cells: list[list[int]] = [[] for _ in rank]
    for v, c in enumerate(colors):
        cells[c].append(v)
    lo = max(8, scale.bit_length())
    hi = lo + 8
    best: list = [None, None, []]
    swaps: list[tuple[int, int]] = []

    def rec(colors: list[int], cells: list | None) -> bool:
        """Search below one node; True once a leaf is found in known."""
        if cells is None:
            cand = sorted([
                (a << hi | b << lo if (a := colors[u]) < (b := colors[v]) else b << hi | a << lo) | t
                for u, v, t in edges
            ])
            if best[1] is None or cand < best[1]:
                if known is not None and _packed(cand) in known:
                    return True
                best[:] = tuple(colors), cand, []
            elif cand == best[1]:
                best[2].append(colors)
            return False
        target = min((len(members), c) for c, members in enumerate(cells) if len(members) > 1)[1]
        members = cells[target]
        reps: list[int] = []
        for v in members:
            for w in reps:
                if _twins(rows, v, w):
                    swaps.append((v, w))
                    break
            else:
                reps.append(v)
        if len(reps) == 1:
            # Mutual twins: individualizing one refines nothing else, and
            # the rest stay the smallest cell, so the search would split
            # them one by one in member order. Split them in one step.
            k = len(members)
            split = [c + (c > target) * (k - 1) for c in colors]
            for i, v in enumerate(members):
                split[v] = target + i
            cells = cells[:target] + [[v] for v in members] + cells[target + 1 :]
            return rec(split, cells if len(cells) < len(split) else None)
        # v gets a cell of its own, just before the rest of its old cell.
        base = [c + (c > target) for c in colors]
        for x in members:
            base[x] += 1
        for v in reps:
            split = base[:]
            split[v] = target
            parts = [[v], [x for x in members if x != v]]
            if rec(*_equitable(nbrs, split, cells[:target] + parts + cells[target + 1 :], scale)):
                return True
        return False

    stopped = rec(*_equitable(nbrs, colors, cells, scale))
    # rec's closure holds rec: clear it, so the cycle collector never has
    # to free this search's lists (or known).
    del rec
    if stopped:
        return None
    perm, key, ties = best
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    gens = {tuple([inverse[c] for c in leaf]) for leaf in ties}
    for v, w in swaps:
        p = list(range(len(perm)))
        p[v], p[w] = w, v
        gens.add(tuple(p))
    return perm, key, lo, tuple(gens)


def _packed(key: list[int]) -> bytes:
    """A leaf encoding whose entries fit in 32 bits, as every simple
    graph's do, as 4 big-endian bytes per entry: one key per encoding, and
    keys of one n sort like their byte forms (see `_form`). An array,
    since struct.pack(fmt, *key) would leave an argument tuple per call in
    the tuple free lists."""
    entries = array("I", key)
    if sys.byteorder == "little":
        entries.byteswap()
    return entries.tobytes()


def _form(n: int, key: list[int], lo: int) -> bytes:
    """The byte form of a packed leaf encoding (see `canonical_labeling`)."""
    if lo == 8:  # every triple is three plain bytes
        return bytes([n]) + b"".join(map(int.to_bytes, key, repeat(3), repeat("big")))
    low = (1 << lo) - 1
    return bytes([n]) + b"".join(
        (x >> lo).to_bytes(2, "big")
        + (bytes((x & low,)) if x & low < 255 else b"\xff" + (x & low).to_bytes(8, "big"))
        for x in key
    )


@per_graph
def _record(g: Multigraph) -> tuple[tuple[int, ...], bytes, tuple]:
    """The one search record of g: (canonical labelling, canonical form,
    automorphism generators)."""
    n = g.n
    if n == 0:
        return (), bytes([0]), ()
    if n > _CANON_MAX_N:
        raise BoundExceededError(f"canonical forms cover at most {_CANON_MAX_N} vertices, got {n}")
    perm, key, lo, gens = _search(*_start(g))
    return perm, _form(n, key, lo), gens


def canonical_labeling(g: Multigraph) -> tuple[tuple[int, ...], bytes]:
    """(position permutation old->new, canonical byte form).

    The form is n, then one (i, j, multiplicity) byte triple per adjacent
    position pair i < j in ascending order; a multiplicity of 255 or more
    is written as the byte 255 followed by the count in 8 bytes.
    """
    return _record(g)[:2]


def canonical_form(g: Multigraph) -> bytes:
    return _record(g)[1]


def is_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees) != sorted(h.degrees):
        return False
    return canonical_form(g) == canonical_form(h)


def automorphisms(g: Multigraph) -> list[tuple[int, ...]]:
    """Every automorphism as a position permutation (v -> image of v), in
    ascending order; the full list is materialized.

    The group comes from the canonical labelling's search: each leaf that
    ties the best leaf b gives b^-1 composed with that leaf, and each
    recorded twin swap gives its transposition; their closure under
    composition is the group. Why that is all of it: an automorphism maps
    b to a leaf of the unpruned search tree with the same encoding. Walk
    that leaf's path down from the root, carrying it into the explored
    tree by twin swaps, each of which fixes every vertex individualized so
    far and maps the subtree below one twin onto the subtree below the
    other:
    - where the path enters a branch skipped for a twin, the recorded swap
      moves it into the kept sibling;
    - where the search split a cell of mutual twins v_0, ..., v_k-1 in one
      step, the unpruned tree individualizes the same cell one member at a
      time, each time with no other cell refined, in some order. The
      recorded swaps (v_i v_0) generate every permutation of the cell, so
      a product of them puts that order into member order and moves the
      path onto the explored one.
    The walk ends at an explored leaf that ties b, so the automorphism is
    a product of swaps and one tie.

    Like `canonical_labeling`, this covers at most 255 vertices
    (BoundExceededError).
    """
    gens = _record(g)[2]
    identity = tuple(range(g.n))
    group, new = {identity}, {identity}
    while new:
        new = {tuple([p[i] for i in s]) for p in new for s in gens} - group
        group |= new
    return sorted(group)


def orbit_representatives(
    perms: Iterable[Sequence[int]],
    widths: Sequence[int],
    choices: Callable[[tuple], Iterable[tuple[int, ...]]],
) -> Iterator[tuple[int, ...]]:
    """Every tuple x that is the lexicographically least of its images
    under perms, in ascending order (orderly generation: Read, "Every one
    a winner", 1978; McKay, J. Algorithms 1998).

    p maps x to (x[p[0]], x[p[1]], ...). x fills in blocks of the given
    widths, in order; choices(prefix) gives, ascending, the tuples the
    next block may hold after that prefix. Once a block is filled, each p
    whose determined prefix (the longest d with p[0..d-1] all filled)
    grew is tested on it, and the prefix is dropped when its image there
    is smaller: every completion then has a smaller image. At full length
    every p has been tested on all of x, so the output is the full sweep
    filtered by that test, in the same order.
    """
    ends = list(accumulate(widths))
    n = ends[-1] if ends else 0
    identity = tuple(range(n))
    tests: list[set] = [set() for _ in widths]
    for p in set(map(tuple, perms)):
        # After block k, p[:d] is determined for d up to the number of
        # running maxima of p below the block's end; a test is needed
        # where that grew, unless p[:d] is the identity there.
        tops = list(accumulate(p, max))
        known = 0
        for k, end in enumerate(ends):
            d = bisect_left(tops, end)
            if d > known:
                known = d
                if p[:d] != identity[:d]:
                    tests[k].add(p[:d])
    checks = [[(_tuple_getter(idx), len(idx)) for idx in sorted(ts)] for ts in tests]
    if n == 0:
        yield ()
        return
    last = len(widths) - 1
    stack = [((), iter(choices(())))]
    while stack:
        prefix, blocks = stack[-1]
        depth = len(stack) - 1
        here = checks[depth]
        for block in blocks:
            x = prefix + block
            for get, d in here:
                if get(x) < x[:d]:
                    break
            else:
                if depth == last:
                    yield x
                    continue
                stack.append((x, iter(choices(x))))
                break
        else:
            stack.pop()


def _tuple_getter(idx: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """x -> (x[i] for i in idx) as a tuple; itemgetter of one index returns
    the bare item."""
    if len(idx) > 1:
        return itemgetter(*idx)
    j = idx[0]
    return lambda x: (x[j],)


def vertex_orbits(g: Multigraph) -> list[frozenset[int]]:
    """The orbits of the automorphism group, by least member: the images
    of v over the group are column v of `automorphisms`."""
    return sorted({frozenset(images) for images in zip(*automorphisms(g))}, key=min)
