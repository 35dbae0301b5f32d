"""Pinned digests of enumeration representatives and canonical labellings.

The enumeration digest fixes which graph represents each class and in what
order, not just the class set; the labelling digest fixes the permutation
and the byte form of a seeded set of random multigraphs. Both were taken
before the canonical-labelling kernel and the attach-set pruning were
rewritten, so any change to a representative or to a canonical byte shows
here. The large-labelling digest covers n from 10 to 14, circulants (whose
search branches) and multiplicities of 255 and more (the escaped byte
form); it was taken before the refinement and leaf comparison were
rewritten.
"""

import hashlib
import random

from matchcov import Multigraph, canonical_labeling, enumerate_connected_graphs
from matchcov.generate import clear_enumeration_cache

ENUMERATION_DIGEST = "2e734aabcb000be5485f01653bfc840dc2d01d8dab559ed81bc19a9ff4c97cd3"
LABELING_DIGEST = "d727e59cf877c539654881e5a3c341b5f841d3b3e882dfd8a062c0460a458d43"
LARGE_LABELING_DIGEST = "945b2b739bd4eeebc999255258c4c282e0ccaeb4b45eaf10bff5b89c9e657495"


def _random_multigraphs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        density = rng.choice((0.2, 0.4, 0.6, 0.9, 1.0))
        top = rng.choice((1, 1, 2, 3))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    edges.extend([(u, v)] * rng.randint(1, top))
        yield Multigraph(n, edges)


def _large_multigraphs(count: int, seed: int):
    """n from 10 to 14: every tenth graph has multiplicities from 254 to 300,
    and every tenth, offset by five, is a circulant."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(10, 14)
        edges = []
        if k % 10 == 5:
            jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, 3))
            cnt = rng.randint(1, 2)
            for u in range(n):
                for j in jumps:
                    if 2 * j < n or u < j:
                        edges.extend([(u, (u + j) % n)] * cnt)
        else:
            density = rng.choice((0.15, 0.3, 0.5, 0.8, 1.0))
            top = rng.choice((1, 1, 2, 3))
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < density:
                        cnt = rng.randint(254, 300) if k % 10 == 0 else rng.randint(1, top)
                        edges.extend([(u, v)] * cnt)
        yield Multigraph(n, edges)


def test_enumeration_representatives_pinned():
    clear_enumeration_cache()
    h = hashlib.sha256()
    for n in range(1, 8):
        for d in (0, 2, 3):
            for g in enumerate_connected_graphs(n, d):
                h.update(repr((n, d, g.edges)).encode())
    clear_enumeration_cache()
    assert h.hexdigest() == ENUMERATION_DIGEST


def test_canonical_labelings_pinned():
    h = hashlib.sha256()
    for g in _random_multigraphs(3000, seed=20240):
        perm, form = canonical_labeling(g)
        h.update(repr((g.n, g.edges, perm, form.hex())).encode())
    assert h.hexdigest() == LABELING_DIGEST


def test_large_canonical_labelings_pinned():
    h = hashlib.sha256()
    for g in _large_multigraphs(400, seed=20261):
        perm, form = canonical_labeling(g)
        h.update(repr((g.n, g.edges, perm, form.hex())).encode())
    assert h.hexdigest() == LARGE_LABELING_DIGEST
