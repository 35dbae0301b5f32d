"""Tight cut decomposition into bricks and braces.

Splitting a matching covered graph along a nontrivial tight cut yields two
smaller matching covered graphs (the shore contractions); iterating until
no nontrivial tight cut remains produces a list of bricks (nonbipartite)
and braces (bipartite) whose multiset, up to isomorphism, does not depend
on the cuts chosen. The default policy picks the lexicographically least
tight shore; a seeded policy shuffles the choice to let callers check the
independence claim.

Tight shores come from `cuts.tight_shores`, which folds every nontrivial
odd shore of one size at a time, smallest size first, so a brace test or
the least tight shore stops at the first size with a tight shore. The
solidity test reads the same folds, which cuts keeps per graph, so a brace
test and a solidity test of one graph fold each size once; it lives in
cuts beside the other readers of separating shores, and is imported here
under its old name.
"""
from __future__ import annotations

import random
from typing import Optional

from .canon import canonical_form
from .covered import is_matching_covered
from .cuts import contractions, is_solid, tight_shores
from .errors import NotMatchingCoveredError
from .multigraph import Multigraph


def nontrivial_tight_shores(g: Multigraph) -> tuple[frozenset[int], ...]:
    """Every tight shore X with 3 <= |X| <= n - 3, one per cut.

    Each cut {X, complement} is reported through the shore containing
    vertex 0; order is (size, sorted vertex tuple).
    """
    return tuple(tight_shores(g))


def find_nontrivial_tight_cut(
    g: Multigraph, rng: Optional[random.Random] = None
) -> Optional[frozenset[int]]:
    """Least nontrivial tight shore, or a seeded-random one; None if none."""
    if rng is None:
        return next(tight_shores(g), None)
    shores = nontrivial_tight_shores(g)
    if not shores:
        return None
    return shores[rng.randrange(len(shores))]


def tight_cut_decomposition(
    g: Multigraph, seed: Optional[int] = None
) -> tuple[tuple[Multigraph, str], ...]:
    """The (component, "brick" | "brace") pairs, in the order they split off."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("decomposition is defined on matching covered graphs")
    rng = random.Random(seed) if seed is not None else None
    components: list[tuple[Multigraph, str]] = []

    def rec(h: Multigraph) -> None:
        shore = find_nontrivial_tight_cut(h, rng)
        if shore is None:
            tag = "brace" if h.is_bipartite() else "brick"
            components.append((h, tag))
            return
        a, b = contractions(h, shore)
        rec(a)
        rec(b)

    rec(g)
    return tuple(components)


def brick_count(g: Multigraph) -> int:
    return sum(1 for _, tag in tight_cut_decomposition(g) if tag == "brick")


def is_near_brick(g: Multigraph) -> bool:
    return brick_count(g) == 1


def is_brace(g: Multigraph) -> bool:
    """Bipartite matching covered with no nontrivial tight cut."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("braces are matching covered")
    if not g.is_bipartite():
        return False
    return next(tight_shores(g), None) is None


def decomposition_multiset(g: Multigraph, seed: Optional[int] = None) -> tuple[bytes, ...]:
    """Sorted canonical forms of the components' underlying simple graphs.

    Parallel edges created by contraction depend on the order in which cuts
    are split, so the component list is only unique up to multiplicities;
    comparisons therefore happen on the underlying simple graphs.
    """
    return tuple(sorted(canonical_form(h.underlying_simple()) for h, _ in tight_cut_decomposition(g, seed)))
