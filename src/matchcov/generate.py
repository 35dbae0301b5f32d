"""Exhaustive graph enumeration at desk scale.

Connected simple graphs are generated by vertex augmentation: every
connected graph on k+1 vertices arises from a connected graph on k
vertices by attaching a new vertex to a nonempty subset (every connected
graph has a non-cutvertex, so connected intermediates suffice). Duplicates
are removed per level by canonical form, keeping the first child seen:
parents in level order, attach masks ascending.

Attach sets are pruned by the parent's automorphism group (McKay, J.
Algorithms 1998). An automorphism p of the parent maps attach set S to
p(S) and the child of S onto the child of p(S), so only the least mask of
each orbit is tried. The ascending loop meets that mask first, and it
builds an isomorphic child, so the first child seen of every class, the
representative, is the one the loop without pruning keeps. The group
costs no search of its own: every parent was labelled as a child one level
down, and its generators (tie leaves and twin swaps) come off that search,
`canon._search`. Each child is labelled from its parent's search input
plus the attach mask, and only a child that is kept becomes a
`Multigraph`.

Each child's search is given the level's kept forms and stops at its
first leaf that is one of them (McKay 1998; McKay and Piperno 2014): that
leaf proves the child isomorphic to a kept one, and a new child is
searched to the end. The level is keyed by packed forms, which sort like
byte forms, so representatives and order do not change.

A degree floor is applied per parent, not per vertex of each attach set: a
parent with a vertex that misses the floor even with the new edge gives no
child, and the vertices that reach it only with the new edge form one mask
that every attach set must hold. Degrees are invariant under the parent's
automorphisms, so a mask passes the floor exactly when its orbit does.

Multigraphs are laid over simple underlying graphs as multiplicity
vectors. `multiplicity_sweep` gives every labelled vector over a base;
`multiplicity_classes` gives the first sweep member of each isomorphism
class, the one place where a multigraph population is quotiented by
isomorphism. It builds only those members, the least vector of each orbit
under the base's automorphisms: `canon.orbit_representatives` fills a
vector edge by edge and drops a prefix as soon as an automorphism maps it
below itself (orderly generation; Read 1978, McKay 1998). No vector is
labelled.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .canon import _packed, _search, _start, automorphisms, orbit_representatives
from .errors import BadSpecError, BoundExceededError
from .multigraph import Multigraph

_ENUM_MAX_N = 10


def _orbit_skips(gens: tuple, k: int) -> bytearray:
    """A flag per attach mask over k parent vertices: 1 where the mask is
    not the least integer of its orbit under the group that gens generate.

    Each generator's images of all masks come from one pass (a mask's
    image is its lowest bit's image joined to the image of the rest); the
    orbit of each least mask, met in ascending order, is then flagged by
    a walk along those images.
    """
    size = 1 << k
    skip = bytearray(size)
    if not gens:
        return skip
    images = []
    for p in gens:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | 1 << p[low.bit_length() - 1]
        images.append(image)
    for least in range(1, size):
        if skip[least]:
            continue
        stack = [least]
        while stack:
            mask = stack.pop()
            for image in images:
                other = image[mask]
                if other > least and not skip[other]:
                    skip[other] = 1
                    stack.append(other)
    return skip


@lru_cache(maxsize=None)
def _connected_level(n: int, min_degree: int, target_n: int) -> tuple[tuple[Multigraph, tuple], ...]:
    """Connected graphs on n vertices feeding a target_n enumeration, each
    with the automorphism generators its labelling search found.

    min_degree prunes augmentations that can never recover: a vertex gains
    at most one edge per future vertex, so deg(v) + (target_n - n) must
    reach min_degree already. A parent vertex short of that even with the
    new edge rules the parent out; one short of it without the new edge
    is in `need`, which every attach mask must cover.

    A child's search input is the parent's plus the attach mask: each
    attached vertex gains the new vertex as a neighbour and a 1 at the end
    of its row. The search is given the level's packed forms and stops at
    a leaf that is one of them; only a child it labels to the end is new,
    and only that child becomes a `Multigraph`.
    """
    if n == 1:
        return ((Multigraph(1, []), ()),)
    out: dict[bytes, tuple[Multigraph, tuple]] = {}
    slack = target_n - n
    new = n - 1
    for parent, gens in _connected_level(new, min_degree, target_n):
        pdeg = parent.degrees
        if min(pdeg) + 1 + slack < min_degree:
            continue
        need = sum(1 << v for v, d in enumerate(pdeg) if d + slack < min_degree)
        nbrs, edges, rows, _, _ = _start(parent)
        skip = _orbit_skips(gens, new)
        for attach_mask in range(1, 1 << new):
            if attach_mask & need != need or attach_mask.bit_count() + slack < min_degree:
                continue
            if skip[attach_mask]:
                continue
            bit = [(attach_mask >> v) & 1 for v in range(new)]
            attach = [v for v in range(new) if bit[v]]
            found = _search(
                [around + [new] if b else around for around, b in zip(nbrs, bit)] + [attach],
                edges + [(v, new, 1) for v in attach],
                [row + [b] for row, b in zip(rows, bit)] + [bit + [0]],
                [d + b for d, b in zip(pdeg, bit)] + [len(attach)],
                2,
                out,
            )
            if found is None:  # a leaf is the form of a child already kept
                continue
            _, key, _, child_gens = found
            out[_packed(key)] = (Multigraph(n, parent.edges + tuple((v, new) for v in attach)), child_gens)
    return tuple(out[k] for k in sorted(out))  # packed leaves sort like their byte forms


def enumerate_connected_graphs(n: int, min_degree: int = 0) -> Iterator[Multigraph]:
    """All connected simple graphs on n vertices with the degree floor.

    Deterministic: one representative per isomorphism class, ordered by
    canonical form.
    """
    if n > _ENUM_MAX_N:
        raise BoundExceededError(f"connected-graph enumeration capped at {_ENUM_MAX_N} vertices")
    if n < 1:
        return
    for g, _ in _connected_level(n, min_degree, n):
        if min(g.degrees) >= min_degree:
            yield g


def multiplicity_sweep(g: Multigraph, mult_bound: int) -> Iterator[Multigraph]:
    """All multigraphs over g with per-edge multiplicity 1..mult_bound.

    Labelled sweep in lexicographic vector order, the all-ones vector
    first; isomorphic duplicates are kept (`multiplicity_classes` drops
    them).
    """
    for vec in product(range(1, mult_bound + 1), repeat=g.m):
        yield Multigraph(g.n, [pair for pair, cnt in zip(g.edges, vec) for _ in range(cnt)])


def multiplicity_classes(g: Multigraph, mult_bound: int) -> Iterator[Multigraph]:
    """The first `multiplicity_sweep` member of each isomorphism class of
    multigraphs over the simple graph g, in sweep order.

    Two multigraphs over g are isomorphic only through an automorphism of
    g, so a class is a vector's orbit under the induced edge permutations,
    and its first member is its least vector. Bases from one enumeration
    (one per isomorphism class) never share a class.
    """
    if mult_bound < 1:
        raise BadSpecError(f"mult_bound must be at least 1, got {mult_bound}")
    if not g.is_simple():
        raise BadSpecError("multiplicity classes are taken over a simple base")
    position = {pair: e for e, pair in enumerate(g.edges)}
    values = [(m,) for m in range(1, mult_bound + 1)]
    edge_perms = (
        [position[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in g.edges]
        for p in automorphisms(g)
    )
    for vec in orbit_representatives(edge_perms, [1] * g.m, lambda _prefix: values):
        yield Multigraph(g.n, [pair for pair, cnt in zip(g.edges, vec) for _ in range(cnt)])


def enumerate_multigraphs(
    n: int, mult_bound: int, min_degree: int = 0
) -> Iterator[Multigraph]:
    """Connected multigraphs on n vertices up to isomorphism, multiplicity
    <= mult_bound.

    Underlying simple graphs come out canonically ordered, and the
    `multiplicity_classes` of each follow in sweep order.
    """
    for simple in enumerate_connected_graphs(n, min_degree=0):
        for g in multiplicity_classes(simple, mult_bound):
            if g.min_degree() >= min_degree:
                yield g


def clear_enumeration_cache() -> None:
    _connected_level.cache_clear()
