"""Exhaustive graph enumeration at desk scale.

Connected simple graphs are generated by vertex augmentation: every
connected graph on k+1 vertices arises from a connected graph on k
vertices by attaching a new vertex to a nonempty subset (every connected
graph has a non-cutvertex, so connected intermediates suffice). Duplicates
are removed per level by canonical form, keeping the first child seen.
Twin-swap pruning skips attach sets that cannot give a new first child: if
u < w are twins of the parent, the swap (u w) is an automorphism, so an
attach set holding w but not u gives the same child as the smaller set with
w traded for u, which was tried earlier. A degree floor is applied per
parent, not per vertex of each attach set: a parent with a vertex that
misses the floor even with the new edge gives no child, and the vertices
that reach it only with the new edge form one mask that every attach set
must hold.

Multigraphs are laid over simple underlying graphs as multiplicity
vectors. `multiplicity_sweep` gives every labelled vector over a base;
`multiplicity_classes` keeps the first sweep member of each isomorphism
class, the one place where a multigraph population is quotiented by
isomorphism: by `canon.least_in_orbit` under the base's automorphisms, not
by labelling each vector (orderly generation; Read 1978, McKay 1998).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator

from .canon import _rows, _twins, automorphisms, canonical_form, least_in_orbit
from .errors import BadSpecError, BoundExceededError
from .multigraph import Multigraph

_ENUM_MAX_N = 10


@lru_cache(maxsize=None)
def _connected_level(n: int, min_degree: int, target_n: int) -> tuple[Multigraph, ...]:
    """Connected graphs on n vertices feeding a target_n enumeration.

    min_degree prunes augmentations that can never recover: a vertex gains
    at most one edge per future vertex, so deg(v) + (target_n - n) must
    reach min_degree already. A parent vertex short of that even with the
    new edge rules the parent out; one short of it without the new edge
    is in `need`, which every attach mask must cover.
    """
    if n == 1:
        return (Multigraph(1, []),)
    out: dict[bytes, Multigraph] = {}
    slack = target_n - n
    for parent in _connected_level(n - 1, min_degree, target_n):
        pedges = parent.edges
        pdeg = parent.degrees
        if min(pdeg) + 1 + slack < min_degree:
            continue
        need = sum(1 << v for v, d in enumerate(pdeg) if d + slack < min_degree)
        rows = _rows(parent)
        twins = [
            (1 << u, 1 << w)
            for u in range(n - 1)
            for w in range(u + 1, n - 1)
            if _twins(rows, u, w)
        ]
        for attach_mask in range(1, 1 << (n - 1)):
            if attach_mask & need != need or attach_mask.bit_count() + slack < min_degree:
                continue
            if any(attach_mask & wb and not attach_mask & ub for ub, wb in twins):
                continue
            attach = [v for v in range(n - 1) if (attach_mask >> v) & 1]
            g = Multigraph(n, pedges + tuple((v, n - 1) for v in attach))
            key = canonical_form(g)
            if key not in out:
                out[key] = g
    return tuple(out[k] for k in sorted(out))


def enumerate_connected_graphs(n: int, min_degree: int = 0) -> Iterator[Multigraph]:
    """All connected simple graphs on n vertices with the degree floor.

    Deterministic: one representative per isomorphism class, ordered by
    canonical form.
    """
    if n > _ENUM_MAX_N:
        raise BoundExceededError(f"connected-graph enumeration capped at {_ENUM_MAX_N} vertices")
    if n < 1:
        return
    for g in _connected_level(n, min_degree, n):
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
    keep = least_in_orbit(
        [position[(p[u], p[v]) if p[u] < p[v] else (p[v], p[u])] for u, v in g.edges]
        for p in automorphisms(g)
    )
    for vec in filter(keep, product(range(1, mult_bound + 1), repeat=g.m)):
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
