"""Seeded inputs for the corpus-stream workload: unions of random perfect
matchings.

Every edge of a union of perfect matchings lies in one of them, so a
connected union is matching covered by construction. That gives the
benchmark a verdict it can check without trusting the program. This module
imports nothing from matchcov.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

MATCHINGS = (3, 4, 5)
# Per stratum, one graph in four comes from the bipartite variant.
BIPARTITE_EVERY = 4


@dataclass(frozen=True)
class PMUnion:
    n: int
    k: int
    edges: tuple[tuple[int, int], ...]
    bipartite: bool
    connected: bool
    text: str


def _random_pm(rng: random.Random, n: int, bipartite: bool) -> list[tuple[int, int]]:
    if bipartite:
        half = n // 2
        right = list(range(half, n))
        rng.shuffle(right)
        return list(zip(range(half), right))
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[i + 1]) for i in range(0, n, 2)]


def is_connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _graph6(n: int, edges) -> str:
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    payload = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + payload


def _mg(n: int, edges) -> str:
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def pm_union(rng: random.Random, n: int, k: int, bipartite: bool) -> PMUnion:
    """Union of k random perfect matchings on n vertices, vertices shuffled.

    A pair that two matchings share becomes a parallel edge. Simple unions
    are written as graph6 or .mg with equal odds; multigraphs as .mg.
    """
    relabel = list(range(n))
    rng.shuffle(relabel)
    edges = []
    for _ in range(k):
        for u, v in _random_pm(rng, n, bipartite):
            a, b = relabel[u], relabel[v]
            edges.append((a, b) if a < b else (b, a))
    edges.sort()
    simple = len(set(edges)) == len(edges)
    text = _graph6(n, edges) if simple and rng.random() < 0.5 else _mg(n, edges)
    return PMUnion(n, k, tuple(edges), bipartite, is_connected(n, edges), text)


def corpus(seed: int, per_k: dict[int, int]) -> list[PMUnion]:
    """per_k[n] graphs on n vertices for every k in MATCHINGS, in a seeded
    order. Fixed stratum sizes keep the mix of sizes, and with it the total
    work, the same at every seed. The same seed gives the same list."""
    rng = random.Random(seed)
    out = []
    for n, count in sorted(per_k.items()):
        for k in MATCHINGS:
            for i in range(count):
                out.append(pm_union(rng, n, k, i % BIPARTITE_EVERY == 0))
    rng.shuffle(out)
    return out


def brute_force_matching_covered(n: int, edges) -> bool:
    """Connected, and every edge lies in some perfect matching, by plain
    enumeration of the perfect matchings."""
    if n < 2 or n % 2 or not is_connected(n, edges):
        return False
    in_some_pm: set[int] = set()

    def extend(free: frozenset, chosen: list[int]) -> None:
        if not free:
            in_some_pm.update(chosen)
            return
        v = min(free)
        for e, (a, b) in enumerate(edges):
            w = b if a == v else a if b == v else None
            if w is not None and w in free:
                chosen.append(e)
                extend(free - {v, w}, chosen)
                chosen.pop()

    extend(frozenset(range(n)), [])
    return len(in_some_pm) == len(edges)
