"""Exhaustive verification campaigns over small matching covered graphs.

Every campaign has one shape. `population(ctx)` yields the graphs of a
bounded family, `claim(g, ctx)` decides one structural claim on one graph,
and `fold(rows, ctx)` turns the verdicts into the report summary, with no
per-campaign step between them. A full run (`run_campaign`) feeds the
claim its own population; `run_corpus` feeds the same claim graphs from a
file. Either way one runner maps the claim, in `jobs` worker processes
when asked, and the report keeps a stable field order so that identical
parameters reproduce identical bytes (wall clock aside). An empty
counterexample list means the claim survived the sweep; campaigns never
decide claims analytically when an enumeration can check them.

Each campaign declares its parameters once, in one table; both runners take
their checks, refusals and recorded fields from it before any graph is built.

A claim returns a falsy value when g is outside the claim's hypotheses
(corpus mode counts such graphs as skipped), otherwise a pair
(facts, problems): facts, a dict of named values for the fold, and one dict
of counterexample fields per way the claim failed on g. Most folds are one
`_tally` of the facts: the rows, the rows the claim applied to, the sum of
each named fact, and a report row per graph where the fold asks for one.
`ctx` starts as the run's parameters; populations leave their own counts in
it for the fold, and folds add per-graph verdict rows (`ctx["verdicts"]`)
and counterexamples that belong to no single graph (`ctx["counterexamples"]`).
"""
from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bipartite import RemovabilityCertificate, bipartition, is_removable_bipartite, minimum_P_set
from .canon import _CANON_MAX_N, automorphisms, canonical_form
from .covered import (
    Single,
    has_two_nonadjacent_removable_edges,
    is_bicritical,
    is_brick,
    is_matching_covered,
    is_minimal_mc,
    is_near_bipartite,
    is_removable_edge,
    pm_pair_groups,
    removable_classes,
    removable_edges,
)
from .cuts import has_robust_cut
from .decomposition import decomposition_multiset, is_brace, is_solid, nontrivial_tight_shores
from .errors import BadSpecError, BoundExceededError, UnknownCampaignError
from .generate import _ENUM_MAX_N, enumerate_connected_graphs, multiplicity_classes
from .graphio import format_mg
from .matching import matching_number
from .multigraph import Multigraph, bits
from .wheels import (
    SpliceNode,
    SpliceSite,
    WheelSpec,
    _walk_certificate,
    check_odd_wheel_splice,
    count_class_matrices,
    g_family_closure,
    is_wheel_like,
    make_wheel,
    odd_wheel_hubs,
    parallels_at_hub,
    search_G_certificate,
    site_splices,
    splice,
    splice_sites,
    spoke_vectors,
)
from .zoo import complete_graph, prism_graph

SCHEMA_VERSION = 1

# Reports embed one verdict row per graph while the population is small
# enough to read; beyond this the rows are dropped and only counted.
VERDICT_CAP = 2000

# Graphs handed to a worker pool at a time.
_POOL_CHUNK = 20000


def _counterexample(g: Multigraph, **fields) -> dict:
    rec: dict = {"mg": format_mg(g)}
    rec.update(fields)
    return rec


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2)


# -- shared populations and helpers ------------------------------------------


def _connected(start: int, max_n: int, min_degree: int) -> Iterator[Multigraph]:
    for n in range(start, max_n + 1, 2):
        yield from enumerate_connected_graphs(n, min_degree=min_degree)


def _simple_bricks(max_n: int, min_n: int = 4) -> Iterator[Multigraph]:
    # Bricks are 3-connected, so the degree floor loses nothing.
    for g in _connected(min_n, max_n, 3):
        if is_brick(g):
            yield g


def _bricks_of_order(ctx: dict) -> Iterator[Multigraph]:
    return _simple_bricks(ctx["n"], min_n=ctx["n"])


def _bipartite_mc_simple(n: int, min_degree: int = 2) -> Iterator[Multigraph]:
    # A degree-1 vertex forces every perfect matching through its one edge,
    # so its neighbour could carry no other covered edge; with n >= 4 that
    # kills matching coverage, hence the floor of 2.
    for g in enumerate_connected_graphs(n, min_degree=min_degree):
        if g.is_bipartite() and is_matching_covered(g):
            yield g


def _bipartite_multigraphs(
    mult_n: int, mult_bound: int, min_n: int = 4, min_degree: int = 0
) -> Iterator[Multigraph]:
    """Bipartite matching covered multigraphs with a parallel pair, n from
    min_n to mult_n, one per isomorphism class.  On two vertices the only
    candidate is K2 with a doubled edge."""
    for n in range(min_n, mult_n + 1, 2):
        # Multiplicities never add neighbours, so bases with a degree-1
        # vertex cannot sweep to anything matching covered beyond K2; and
        # a multigraph is matching covered exactly when its base is.
        for base in enumerate_connected_graphs(n, min_degree=1 if n == 2 else 2):
            if not base.is_bipartite() or not is_matching_covered(base):
                continue
            for g in multiplicity_classes(base, mult_bound):
                if g.m >= 2 and not (g.is_simple() and n >= 4) and g.min_degree() >= min_degree:
                    yield g


def _bipartite(ctx: dict, min_degree: int) -> Iterator[Multigraph]:
    """Bipartite matching covered graphs on 4 to max_n vertices, then
    multigraphs with a parallel pair on 4 to mult_n, all of degree at least
    min_degree."""
    for n in range(4, ctx["max_n"] + 1, 2):
        yield from _bipartite_mc_simple(n, min_degree)
    yield from _bipartite_multigraphs(ctx["mult_n"], ctx["mult_bound"], min_degree=min_degree)


def _canon_hex(g: Multigraph) -> str:
    return canonical_form(g).hex()


@lru_cache(maxsize=None)
def _k4_and_prism() -> tuple[bytes, bytes]:
    return canonical_form(complete_graph(4)), canonical_form(prism_graph())


def _tally(rows, *keys: str, row: Optional[Callable] = None) -> tuple[dict, list]:
    """Fold the named facts of a claim's verdicts: ({"rows": rows,
    "applied": rows the claim applied to, key: the sum of that fact over
    them, ...}, [row(g, facts) for each applied graph, where truthy]).
    A claim with nothing to report on a graph it applies to returns the
    empty facts {}, so `f and {...}` builds rows for the others alone."""
    counts = dict.fromkeys(("rows", "applied", *keys), 0)
    collected: list = []
    for g, verdict in rows:
        counts["rows"] += 1
        if verdict:
            facts = verdict[0]
            counts["applied"] += 1
            for key in keys:
                counts[key] += facts[key]
            if row is not None and (r := row(g, facts)):
                collected.append(r)
    return counts, collected


# =============================================================================
# thm-1.1: every simple brick has at least max-degree many removable classes,
# and (K4 and the prism aside) at least max-degree - 2 removable edges.
# =============================================================================


def _thm11_claim(g: Multigraph, ctx: dict):
    if not g.is_simple() or not is_brick(g):
        return None
    classes = removable_classes(g)
    found = {
        "delta": g.max_degree(),
        "classes": len(classes),
        "singles": sum(1 for c in classes if isinstance(c, Single)),
    }
    # K4 (n = 4) and the prism (n = 6) are the only exempt bricks.
    exempt = g.n <= 6 and canonical_form(g) in _k4_and_prism()
    facts = {"found": found, "exempt": exempt}
    if found["classes"] < found["delta"]:
        return facts, [dict(found, failed="classes")]
    if not exempt and found["singles"] < found["delta"] - 2:
        return facts, [dict(found, failed="edges")]
    return facts, []


def _thm11_fold(rows, ctx: dict) -> dict:
    counts, ctx["verdicts"] = _tally(
        rows, "exempt", row=lambda g, f: {"canon": _canon_hex(g), "n": g.n, **f["found"]}
    )
    by_n = Counter(r["n"] for r in ctx["verdicts"])
    return {
        "bricks_by_n": {str(k): by_n[k] for k in sorted(by_n)},
        "exempt_from_edge_count": counts["exempt"],
    }


# =============================================================================
# thm-1.4: a minimal matching covered graph on >= 4 vertices has minimum
# degree 2 or 3.  Simple graphs to max_n: no multigraph is minimal.
# =============================================================================


def _thm14_claim(g: Multigraph, ctx: dict):
    """Minimal means no removable edge. In a matching covered graph a
    parallel copy is always removable: deleting it leaves the underlying
    simple graph as it was, and matching coverage depends on nothing else.
    So no multigraph with a parallel class is minimal, and the population
    holds simple graphs only; `is_minimal_mc` refutes a multigraph in a
    corpus with no search. tests/test_covered_properties.py checks the lemma.
    """
    # K2 is matching covered and minimal but has minimum degree 1: the
    # claim concerns graphs on at least four vertices.
    if g.n < 4 or not is_matching_covered(g):
        return None
    if not is_minimal_mc(g):
        return {}, []
    delta = g.min_degree()
    return {"delta": delta}, [] if delta in (2, 3) else [{"delta": delta}]


def _thm14_fold(rows, ctx: dict) -> dict:
    counts, minimal = _tally(rows, row=lambda g, f: f and {"canon": _canon_hex(g), "n": g.n, "m": g.m, **f})
    minimal.sort(key=lambda r: (r["n"], r["canon"]))
    return {"matching_covered": counts["applied"], "minimal": len(minimal), "minimal_examples": minimal}


# =============================================================================
# thm-1.3: every wheel-like brick in the desk-scale populations admits a
# family certificate, read top-down from its own separating cuts.
# =============================================================================


def _thm13_population(ctx: dict) -> list[Multigraph]:
    graphs = [g for g in _simple_bricks(ctx["max_n"]) if is_wheel_like(g)]
    for base in _simple_bricks(ctx["mult_n"]):
        for g in multiplicity_classes(base, ctx["mult_bound"]):
            if not g.is_simple() and is_wheel_like(g):
                graphs.append(g)
    return graphs


def _thm13_claim(g: Multigraph, ctx: dict):
    if not is_brick(g) or not is_wheel_like(g):
        return None
    cert = search_G_certificate(g)
    if cert is None:
        return {}, [{"failed": "no certificate found"}]
    built, problems = _walk_certificate(cert)
    if problems:
        return {}, [{"failed": "certificate rejected", "detail": list(problems)}]
    if canonical_form(built) != canonical_form(g):
        return {}, [{"failed": "certificate builds a different graph"}]
    return {"certified": True}, []


def _thm13_fold(rows, ctx: dict) -> dict:
    counts, ctx["verdicts"] = _tally(
        rows, row=lambda g, f: f and {"canon": _canon_hex(g), "n": g.n, "m": g.m, **f}
    )
    return {"wheel_like_bricks": counts["rows"]}


# =============================================================================
# lemma-2.16: in a bipartite matching covered graph an edge is non-removable
# exactly when a same-size pair (A1, B1) isolates it as the only crossing
# into the B-remainder with G[A1 + B1] matching covered.
# =============================================================================


def _certificate_holds(g: Multigraph, e: int, cert: RemovabilityCertificate) -> bool:
    """Re-derive the certificate conditions from scratch."""
    u, v = g.endpoints(e)
    a1, b1 = cert.a1, cert.b1
    if v in a1:
        u, v = v, u
    if u not in a1 or v in b1 or v in a1 or u in b1:
        return False
    if len(a1) != len(b1) or not b1:
        return False
    a, b = bipartition(g)
    if u in b:
        a, b = b, a
    if not (a1 <= a and b1 <= b):
        return False
    rest = b - b1
    crossing = [
        ee
        for ee in range(g.m)
        for (x, y) in [g.endpoints(ee)]
        if (x in a1 and y in rest) or (y in a1 and x in rest)
    ]
    if crossing != [e]:
        return False
    return is_matching_covered(g.induced(sorted(a1 | b1)))


def _sample_bipartite_mc(n: int, samples: int, seed: int) -> list[Multigraph]:
    rng = random.Random(seed)
    half = n // 2
    probs = (0.35, 0.45, 0.55, 0.65)
    found: dict[bytes, Multigraph] = {}
    attempts = 0
    cap = max(1, samples) * 400
    while len(found) < samples and attempts < cap:
        p = probs[attempts % len(probs)]
        attempts += 1
        edges = tuple(
            (x, half + y) for x in range(half) for y in range(half) if rng.random() < p
        )
        g = Multigraph(n, edges)
        if not g.is_connected() or not is_matching_covered(g):
            continue
        found.setdefault(canonical_form(g), g)
    return list(found.values())


def _lemma216_population(ctx: dict) -> Iterator[Multigraph]:
    slices: list[tuple[str, Iterable[Multigraph]]] = [
        (f"exhaustive n={n}", _bipartite_mc_simple(n)) for n in range(4, ctx["max_n"] + 1, 2)
    ]
    multigraphs = _bipartite_multigraphs(ctx["mult_n"], ctx["mult_bound"], min_n=2)
    slices.append((f"multigraphs n<={ctx['mult_n']}", multigraphs))
    sampled = _sample_bipartite_mc(ctx["sample_n"], ctx["samples"], ctx["seed"])
    ctx["sampled_graphs"] = len(sampled)
    slices.append((f"sampled n={ctx['sample_n']}", sampled))
    counts = ctx["slices"] = {}
    for name, graphs in slices:
        counts[name] = 0
        for g in graphs:
            counts[name] += 1
            yield g


def _lemma216_claim(g: Multigraph, ctx: dict):
    if not g.is_bipartite() or g.m < 2 or not is_matching_covered(g):
        return None
    certs = 0
    problems: list[dict] = []
    for e in range(g.m):
        removable, cert = is_removable_bipartite(g, e)
        edge = list(g.endpoints(e))
        if removable:
            if cert is not None:
                problems.append({"edge": edge, "failed": "certificate for removable edge"})
        elif cert is None:
            problems.append({"edge": edge, "failed": "no certificate found"})
        elif not _certificate_holds(g, e, cert):
            problems.append(
                {
                    "edge": edge,
                    "failed": "certificate does not satisfy the conditions",
                    "a1": sorted(cert.a1),
                    "b1": sorted(cert.b1),
                }
            )
        else:
            certs += 1
    return {"edges": g.m, "certs": certs}, problems


def _lemma216_fold(rows, ctx: dict) -> dict:
    counts, _ = _tally(rows, "edges", "certs")
    return {
        "slices": ctx["slices"],
        "edges_tested": counts["edges"],
        "certificates_validated": counts["certs"],
        "sampled_graphs": ctx["sampled_graphs"],
    }


# =============================================================================
# lemma-2.17: bipartite matching covered, minimum degree >= 3: every edge
# inside a minimum P-set's induced subgraph is removable.
# =============================================================================


def _lemma217_claim(g: Multigraph, ctx: dict):
    if not g.is_bipartite() or g.min_degree() < 3 or not is_matching_covered(g):
        return None
    pset = minimum_P_set(g)
    if pset is None:
        return {"with_p_set": 0, "induced_edges_tested": 0}, []
    x = pset.vertices
    inside = [e for e in range(g.m) if set(g.endpoints(e)) <= x]
    return {"with_p_set": 1, "induced_edges_tested": len(inside)}, [
        {"edge": list(g.endpoints(e)), "p_set": sorted(x), "failed": "induced edge not removable"}
        for e in inside
        if not is_removable_edge(g, e)
    ]


def _lemma217_fold(rows, ctx: dict) -> dict:
    counts, _ = _tally(rows, "with_p_set", "induced_edges_tested")
    return {
        "with_p_set": counts["with_p_set"],
        "without_p_set": counts["applied"] - counts["with_p_set"],
        "induced_edges_tested": counts["induced_edges_tested"],
    }


# =============================================================================
# lemma-2.18: bipartite matching covered with one side all of degree >= 3:
# either two nonadjacent removable edges exist, or some degree-2 vertex in
# the other side coexists with a vertex of degree >= 4 all of whose edges
# are removable.
# =============================================================================


_LEMMA218_KEYS = ("orientations_tested", "satisfied_by_pair", "satisfied_by_fallback")


def _lemma218_fallback(g: Multigraph, b_side: frozenset[int]) -> bool:
    rem = set(removable_edges(g))
    if not any(g.degree(v) == 2 for v in b_side):
        return False
    for u in range(g.n):
        if g.degree(u) >= 4 and all(e in rem for e in g.incident[u]):
            return True
    return False


def _lemma218_claim(g: Multigraph, ctx: dict):
    if not g.is_bipartite() or not is_matching_covered(g):
        return None
    a, b = bipartition(g)
    sides = [(x, y) for x, y in ((a, b), (b, a)) if all(g.degree(v) >= 3 for v in x)]
    if not sides:
        return None
    if has_two_nonadjacent_removable_edges(g):
        return dict(zip(_LEMMA218_KEYS, (len(sides), len(sides), 0))), []
    fallback = [_lemma218_fallback(g, b_side) for _, b_side in sides]
    problems = [
        {"a_side": sorted(a_side), "failed": "no pair and no fallback pattern"}
        for (a_side, _), ok in zip(sides, fallback)
        if not ok
    ]
    return dict(zip(_LEMMA218_KEYS, (len(sides), 0, sum(fallback)))), problems


def _lemma218_fold(rows, ctx: dict) -> dict:
    counts, _ = _tally(rows, *_LEMMA218_KEYS)
    return {key: counts[key] for key in _LEMMA218_KEYS}


# =============================================================================
# lemma-3.6: a brick on six vertices is wheel-like exactly when its
# underlying simple graph is the 5-wheel and all parallels sit at the hub.
# =============================================================================


def _lemma36_population(ctx: dict) -> Iterator[Multigraph]:
    bases = list(_bricks_of_order(ctx))
    ctx["simple_brick_bases"] = len(bases)
    ctx["labelled_sweep"] = sum(ctx["mult_bound"] ** base.m for base in bases)
    for base in bases:
        yield from multiplicity_classes(base, ctx["mult_bound"])


def _lemma36_claim(g: Multigraph, ctx: dict):
    if g.n != 6 or not is_brick(g):
        return None
    wl = bool(is_wheel_like(g))
    # On six vertices only the 5-wheel is an odd wheel, with one hub.
    rhs = any(parallels_at_hub(g, h) for h in odd_wheel_hubs(g))
    if wl == rhs:
        return {"wheel_like": wl}, []
    return {"wheel_like": wl}, [{"wheel_like": wl, "w5_hub_parallels": rhs, "failed": "equivalence"}]


def _lemma36_fold(rows, ctx: dict) -> dict:
    counts, _ = _tally(rows, "wheel_like")
    return {
        "simple_brick_bases": ctx["simple_brick_bases"],
        "labelled_sweep": ctx["labelled_sweep"],
        "distinct_multigraphs": counts["rows"],
        "non_bricks": counts["rows"] - counts["applied"],
        "wheel_like": counts["wheel_like"],
    }


# =============================================================================
# lemma-3.9: a splice of two odd wheels that is a brick is wheel-like exactly
# when the three splice conditions hold.  The theta space is quotiented by
# parallel-copy swaps (class matrices) and by the wheel symmetries fixing
# the splice vertices; a canonical-form cache collapses isomorphic results.
# =============================================================================


def _lemma39_population(ctx: dict) -> Iterator[Multigraph]:
    """Splice results, one per theta orbit. Each carries the splice that
    built it, with its condition verdict, as `built_by`: the fold gets the
    population's own graphs, the claim a rebuilt copy without it."""
    sites = []
    for k in ctx["wheels"]:
        for vec in spoke_vectors(k, ctx["mult_bound"]):
            if sum(x > 1 for x in vec) <= ctx["doubles"]:
                wheel, hub = make_wheel(WheelSpec(k, vec))
                group = [p for p in automorphisms(wheel) if p[hub] == hub]
                sites += splice_sites(wheel, group)
    ctx.update(splice_sites=len(sites), tasks=0, theta_matrices=0)
    for i, sg in enumerate(sites):
        for sh in sites[i:]:
            if sum(sg.class_sizes) != sum(sh.class_sizes):
                continue
            ctx["tasks"] += 1
            ctx["theta_matrices"] += count_class_matrices(sh.class_sizes, sg.class_sizes)
            gw, u, hw, v = sg.graph, sg.vertex, sh.graph, sh.vertex
            for matrix, theta in site_splices(sg, sh):
                result = splice(gw, u, hw, v, theta)
                result.built_by = (sg, sh, matrix, check_odd_wheel_splice(gw, u, hw, v, theta))
                yield result


def _wheel_site(site: SpliceSite) -> dict:
    """A splice site of a `make_wheel` wheel: rim length, spokes, vertex."""
    g, k = site.graph, site.graph.n - 1
    return {"k": k, "mults": [g.multiplicity(i, k) for i in range(k)], "vertex": site.vertex}


def _lemma39_claim(g: Multigraph, ctx: dict):
    # Isomorphic results share one verdict: 96 of 1,711 repeat a form at splice-n10 bounds.
    key = canonical_form(g)
    cache = ctx.setdefault("cache", {})
    facts = cache.get(key)
    if facts is None:
        brick = is_brick(g)
        facts = cache[key] = {"key": key, "brick": brick, "wheel_like": brick and bool(is_wheel_like(g))}
    return facts, []


def _lemma39_fold(rows, ctx: dict) -> dict:
    keys: set[bytes] = set()
    reps = bricks = non_bricks = wheel_like = conditions_true = 0
    for g, (facts, _) in rows:
        sg, sh, matrix, (conds_ok, violations) = g.built_by
        reps += 1
        keys.add(facts["key"])
        brick, wl = facts["brick"], facts["wheel_like"]
        if not brick:
            non_bricks += 1
            continue
        bricks += 1
        wheel_like += wl
        conditions_true += conds_ok
        if wl != conds_ok:
            ctx["counterexamples"].append(
                _counterexample(
                    g,
                    left=_wheel_site(sg), right=_wheel_site(sh),
                    matrix=[list(r) for r in matrix],
                    wheel_like=wl,
                    conditions=bool(conds_ok),
                    violations=list(violations),
                )
            )
    return {
        "splice_sites": ctx["splice_sites"],
        "tasks": ctx["tasks"],
        "theta_matrices": ctx["theta_matrices"],
        "orbit_representatives": reps,
        "brick_results": bricks,
        "non_brick_results": non_bricks,
        "wheel_like": wheel_like,
        "conditions_true": conditions_true,
        "distinct_results": len(keys),
    }


# =============================================================================
# prop-3.13: a bicritical graph with no removable edge has at least four
# vertices of degree three.
# =============================================================================


def _prop313_claim(g: Multigraph, ctx: dict):
    if not is_bicritical(g):
        return None
    if not is_minimal_mc(g):
        return {}, []
    deg3 = sum(1 for d in g.degrees if d == 3)
    return {"degree_three": deg3}, [] if deg3 >= 4 else [{"degree_three": deg3}]


def _prop313_fold(rows, ctx: dict) -> dict:
    counts, irreducible = _tally(rows, row=lambda g, f: f and {"canon": _canon_hex(g), "n": g.n, **f})
    return {
        "bicritical": counts["applied"],
        "without_removable_edge": len(irreducible),
        "examples": sorted(irreducible, key=lambda r: (r["n"], r["canon"])),
    }


# =============================================================================
# decomp-unique: the multiset of bricks and braces is independent of the
# order in which nontrivial tight cuts are split.
# =============================================================================


def _decomp_claim(g: Multigraph, ctx: dict):
    # Falsy either way, but the fold counts matching covered graphs
    # without a nontrivial tight cut (False) apart from the rest (None).
    if not is_matching_covered(g):
        return None
    if not nontrivial_tight_shores(g):
        return False
    baseline = decomposition_multiset(g, seed=0)
    for s in range(1, ctx["seeds"]):
        other = decomposition_multiset(g, seed=s)
        if other != baseline:
            hexed = ([x.hex() for x in baseline], [x.hex() for x in other])
            return {}, [{"seed": s, "baseline": hexed[0], "other": hexed[1]}]
    return {}, []


def _decomp_fold(rows, ctx: dict) -> dict:
    covered = with_cut = 0
    for _, verdict in rows:
        covered += verdict is not None
        with_cut += bool(verdict)
    return {
        "matching_covered": covered,
        "with_nontrivial_tight_cut": with_cut,
        "seeds_per_graph": ctx["seeds"],
    }


# =============================================================================
# figure searches
# =============================================================================


def _fig_r8_claim(g: Multigraph, ctx: dict):
    """Is g near-bipartite without two nonadjacent removable edges?"""
    candidate = not has_two_nonadjacent_removable_edges(g) and is_near_bipartite(g) is not None
    return {"candidate": candidate}, []


def _fig_r8_fold(rows, ctx: dict) -> dict:
    """The unique 8-vertex simple near-bipartite brick without two
    nonadjacent removable edges."""
    counts, candidates = _tally(rows, row=lambda g, f: f["candidate"] and g)
    if len(candidates) != 1:
        for g in candidates:
            ctx["counterexamples"].append(_counterexample(g, failed="candidate count != 1"))
        if not candidates:
            ctx["counterexamples"].append({"mg": "", "failed": "no candidate found"})
    return {
        "bricks_n8": counts["rows"],
        "candidates": len(candidates),
        "candidate_canon": sorted(_canon_hex(g) for g in candidates),
        "candidate_mg": sorted(format_mg(g) for g in candidates),
    }


def _nonsolid_claim(g: Multigraph, ctx: dict):
    """Simple six-vertex nonsolid bricks other than the prism: none is
    wheel-like, and each carries a robust cut."""
    if canonical_form(g) == _k4_and_prism()[1] or is_solid(g):
        return None
    robust = has_robust_cut(g)
    problems = [{"failed": "nonsolid candidate is wheel-like"}] if is_wheel_like(g) else []
    if not robust:
        problems.append({"failed": "nonsolid brick without a robust cut"})
    return {"robust_cut": robust}, problems


def _nonsolid_fold(rows, ctx: dict) -> dict:
    counts, candidates = _tally(
        rows, row=lambda g, f: {"canon": _canon_hex(g), "m": g.m, **f, "mg": format_mg(g)}
    )
    if not candidates:
        ctx["counterexamples"].append({"mg": "", "failed": "no nonsolid candidate found"})
    candidates.sort(key=lambda r: (r["m"], r["canon"]))
    return {
        "six_vertex_bricks": counts["rows"],
        "candidates": len(candidates),
        "candidate_list": candidates,
    }


def _generation(cert) -> int:
    return 1 + _generation(cert.left) if isinstance(cert, SpliceNode) else 1


def _g3_population(ctx: dict) -> Iterator[Multigraph]:
    closure = g_family_closure(ctx["max_n"])
    ctx["closure_size"] = len(closure)
    for key in sorted(closure):
        g, cert = closure[key]
        if _generation(cert) == 3:
            yield g


def _g3_claim(g: Multigraph, ctx: dict):
    """A third-generation family member that is a brick but not wheel-like."""
    return {"candidate": is_brick(g) and not is_wheel_like(g)}, []


def _g3_fold(rows, ctx: dict) -> dict:
    counts, candidates = _tally(
        rows, row=lambda g, f: f["candidate"] and {"canon": _canon_hex(g), "n": g.n, "m": g.m, "mg": format_mg(g)}
    )
    if not candidates:
        ctx["counterexamples"].append({"mg": "", "failed": "no non-wheel-like third-generation brick"})
    return {
        "closure_size": ctx["closure_size"],
        "third_generation": counts["rows"],
        "non_wheel_like_bricks": len(candidates),
        "examples": candidates[:10],
    }


# =============================================================================
# single-graph analysis (the `analyze` command body)
# =============================================================================


def analyze_graph(g: Multigraph) -> dict:
    report: dict = {
        "schema": SCHEMA_VERSION,
        "n": g.n,
        "m": g.m,
        "min_degree": g.min_degree() if g.n else 0,
        "max_degree": g.max_degree() if g.n else 0,
        "bipartite": g.is_bipartite(),
        "matching_number": matching_number(g),
    }
    skipped: list[str] = []
    mc = is_matching_covered(g)
    report["matching_covered"] = mc
    if not mc:
        report["status"] = "not matching covered"
        report["skipped"] = skipped
        return report

    report["bicritical"] = is_bicritical(g)
    brick = is_brick(g)
    report["brick"] = brick
    # Each kernel keeps its own ceiling; past it the verdict is skipped with
    # the kernel's refusal.
    for key, kernel in (("brace", is_brace), ("solid", is_solid)):
        try:
            report[key] = kernel(g)
        except BoundExceededError as exc:
            report[key] = None
            skipped.append(f"{key}: {exc}")

    classes = removable_classes(g)
    report["removable_singles"] = sorted(
        list(g.endpoints(c.edge)) for c in classes if isinstance(c, Single)
    )
    report["removable_doubletons"] = sorted(
        sorted(list(g.endpoints(e)) for e in c.edges)
        for c in classes
        if not isinstance(c, Single)
    )
    # minimality is about single-edge deletions; a doubleton does not count
    report["minimal"] = is_minimal_mc(g)

    if brick:
        report["wheel_like_hubs"] = sorted(is_wheel_like(g))
    else:
        report["wheel_like_hubs"] = []

    # The maximal barriers of a matching covered graph are its pair groups
    # (`cuts.maximal_barriers`); the report lists their vertices alone.
    report["maximal_barriers"] = sorted(bits(group) for group in pm_pair_groups(g))

    report["status"] = "ok"
    report["skipped"] = skipped
    return report


# =============================================================================
# registry and runner
# =============================================================================


class Param(NamedTuple):
    """A run parameter: its default, and the check that refuses a bad value
    and returns the value the report records."""

    default: object
    check: Callable[[str, object], object] = lambda key, value: value


def _at_least(low: int) -> Callable[[str, int], int]:
    def check(key: str, value: int) -> int:
        if value < low:
            raise BadSpecError(f"{key} must be at least {low}, got {value}")
        return value

    return check


def _capped(cap: int, kernel: str) -> Callable[[str, int], int]:
    """The check of an order the population builds graphs up to, for a
    kernel that refuses past `cap` vertices. Every population steps through
    even orders, so an odd n stops at n - 1."""

    def check(key: str, n: int) -> int:
        if n - n % 2 > cap:
            raise BoundExceededError(f"{key}={n}: {kernel} capped at {cap} vertices")
        return n

    return check


def _odd_rims(key: str, rims: Iterable[int]) -> list[int]:
    """Odd wheel rims, sorted. A repeated length would make the same
    splices twice, and the counts would be orbit counts no more."""
    rims = sorted(rims)
    if any(k < 3 or k % 2 == 0 for k in rims) or len(set(rims)) < len(rims):
        raise BadSpecError(f"{key} must be distinct odd rim lengths of at least 3, got {rims}")
    return rims


def _sample_order(key: str, n: int) -> int:
    """Two equal sides: at an odd order nothing is sampled, and at 2 only
    K2, which the claim skips and the fold cannot read."""
    if n < 4 or n % 2:
        raise BadSpecError(f"{key} must be even and at least 4, got {n}")
    return _capped(_CANON_MAX_N, "canonical forms")(key, n)


_enumerated = _capped(_ENUM_MAX_N, "graph enumeration")
_MAX_N = Param(8, _enumerated)
_MULT_N = Param(6, _enumerated)
_MULT_BOUND = Param(2, _at_least(1))
_SEEDS = Param(20, _at_least(2))
_check_jobs = _at_least(1)


class Campaign(NamedTuple):
    population: Callable[[dict], Iterable[Multigraph]]
    claim: Callable[[Multigraph, dict], object]
    fold: Callable[[Iterator[tuple], dict], dict]
    # The report's "parameters", in order: a Param is a run parameter, any
    # other value a constant of the population.
    parameters: dict
    # run_corpus reruns the claim over supplied graphs
    corpus: bool = False


CAMPAIGNS: dict[str, Campaign] = {
    "thm-1.1": Campaign(
        lambda ctx: _simple_bricks(ctx["max_n"]), _thm11_claim, _thm11_fold,
        {"max_n": _MAX_N, "population": "simple bricks"},
        corpus=True,
    ),
    "thm-1.3": Campaign(
        _thm13_population, _thm13_claim, _thm13_fold,
        {"max_n": _MAX_N, "mult_n": _MULT_N, "mult_bound": _MULT_BOUND},
        corpus=True,
    ),
    "thm-1.4": Campaign(
        # Matching covered graphs on >= 4 vertices have no degree-1 vertex,
        # so the floor of 2 loses nothing.
        lambda ctx: _connected(ctx["min_n"], ctx["max_n"], 2), _thm14_claim, _thm14_fold,
        {"max_n": _MAX_N, "min_n": 4},
        corpus=True,
    ),
    "lemma-2.16": Campaign(
        _lemma216_population, _lemma216_claim, _lemma216_fold,
        {
            "max_n": _MAX_N,
            "sample_n": Param(10, _sample_order),
            "samples": Param(200, _at_least(0)),
            "seed": Param(0),
            "mult_n": _MULT_N,
            "mult_bound": _MULT_BOUND,
        },
        corpus=True,
    ),
    "lemma-2.17": Campaign(
        lambda ctx: _bipartite(ctx, ctx["min_degree"]), _lemma217_claim, _lemma217_fold,
        {"max_n": _MAX_N, "mult_n": _MULT_N, "mult_bound": _MULT_BOUND, "min_degree": 3},
        corpus=True,
    ),
    "lemma-2.18": Campaign(
        # As in thm-1.4, the floor of 2 loses nothing.
        lambda ctx: _bipartite(ctx, 2), _lemma218_claim, _lemma218_fold,
        {"max_n": _MAX_N, "mult_n": _MULT_N, "mult_bound": _MULT_BOUND},
        corpus=True,
    ),
    "lemma-3.6": Campaign(
        _lemma36_population, _lemma36_claim, _lemma36_fold,
        {"n": 6, "mult_bound": _MULT_BOUND},
        corpus=True,
    ),
    "lemma-3.9": Campaign(
        _lemma39_population, _lemma39_claim, _lemma39_fold,
        {
            "wheels": Param((3, 5, 7), _odd_rims),
            "mult_bound": _MULT_BOUND,
            "doubles": Param(2, _at_least(0)),
        },
    ),
    "prop-3.13": Campaign(
        # Bicritical graphs on >= 4 vertices have minimum degree 3: deleting
        # the two neighbours of a degree-2 vertex strands it.
        lambda ctx: _connected(4, ctx["max_n"], 3), _prop313_claim, _prop313_fold,
        {"max_n": _MAX_N, "population": "connected simple, min degree 3"},
        corpus=True,
    ),
    "decomp-unique": Campaign(
        # Matching covered again, so the floor of 2; a nontrivial tight cut
        # needs 3 <= |X| <= n - 3, so n starts at 6.
        lambda ctx: _connected(6, ctx["max_n"], 2), _decomp_claim, _decomp_fold,
        {"max_n": _MAX_N, "seeds": _SEEDS, "population": "connected simple"},
        corpus=True,
    ),
    "fig-r8": Campaign(
        _bricks_of_order, _fig_r8_claim, _fig_r8_fold,
        {"n": 8, "population": "simple bricks"},
    ),
    "fig-nonsolid-6": Campaign(
        _bricks_of_order, _nonsolid_claim, _nonsolid_fold,
        {"n": 6, "population": "simple bricks", "excluded": "prism"},
    ),
    # The family closure keeps its own ceiling on max_n.
    "fig-g3": Campaign(_g3_population, _g3_claim, _g3_fold, {"max_n": Param(10)}),
}


def _parameters(table: dict, given: dict, runner: str) -> dict:
    """The table with the run's checked values filled in, in table order;
    a key that names no run parameter of the table is refused."""
    for key in given:
        if not isinstance(table.get(key), Param):
            flag = key.replace("_", "-")
            raise UnknownCampaignError(f"{runner} takes no parameter {key!r} (--{flag})")
    return {
        key: entry.check(key, given.get(key, entry.default)) if isinstance(entry, Param) else entry
        for key, entry in table.items()
    }


# Set in each worker process by _start_worker: the claim and its context.
_worker_claim: tuple = ()


def _start_worker(claim: Callable, ctx: dict) -> None:
    global _worker_claim
    _worker_claim = (claim, ctx)


def _decide_in_worker(payload: tuple[int, tuple]):
    claim, ctx = _worker_claim
    return claim(Multigraph(*payload), ctx)


def _verdicts(
    claim: Callable, ctx: dict, graphs: Iterable[Multigraph], jobs: int
) -> Iterator[tuple]:
    """(graph, verdict) pairs in population order.

    The claim sees a fresh copy of each graph, rebuilt from (n, edges), so
    per-graph memos die with the verdict instead of piling up on graphs the
    enumeration cache holds for the whole run.  With jobs > 1, chunks of
    the population go to a pool of workers; they are forked, so they share
    the claim's context without pickling it.
    """
    graphs = iter(graphs)
    while chunk := list(itertools.islice(graphs, _POOL_CHUNK if jobs > 1 else 1)):
        payloads = [(g.n, g.edges) for g in chunk]
        if jobs > 1:
            import multiprocessing

            fork = multiprocessing.get_context("fork")
            with fork.Pool(jobs, _start_worker, (claim, ctx)) as pool:
                chunksize = max(1, len(chunk) // (8 * jobs))
                verdicts = pool.map(_decide_in_worker, payloads, chunksize=chunksize)
        else:
            verdicts = [claim(Multigraph(*p), ctx) for p in payloads]
        yield from zip(chunk, verdicts)


def _run(name: str, campaign: Campaign, params: dict, jobs: int, runner: str) -> dict:
    parameters = _parameters(campaign.parameters, params, runner)
    _check_jobs("jobs", jobs)
    started = time.monotonic()
    ctx = dict(parameters)
    graphs = campaign.population(ctx)
    counterexamples = ctx["counterexamples"] = []
    checked = 0

    def rows() -> Iterator[tuple]:
        nonlocal checked
        for g, verdict in _verdicts(campaign.claim, ctx, graphs, jobs):
            checked += 1
            if verdict:
                counterexamples.extend(_counterexample(g, **p) for p in verdict[1])
            yield g, verdict

    body = campaign.fold(rows(), ctx)
    # A run that checked nothing proves nothing.
    body["status"] = "pass" if checked and not counterexamples else "fail"
    report = {
        "schema": SCHEMA_VERSION,
        "campaign": name,
        "parameters": parameters,
        "graphs_checked": checked,
        "summary": body,
        "counterexamples": sorted(counterexamples, key=lambda r: r["mg"]),
    }
    verdicts = ctx.get("verdicts")
    if verdicts is not None:
        if len(verdicts) <= VERDICT_CAP:
            report["verdicts"] = verdicts
        else:
            report["verdicts_omitted"] = len(verdicts)
    report["wall_clock_seconds"] = round(time.monotonic() - started, 3)
    return report


def run_campaign(name: str, *, jobs: int = 1, **params) -> dict:
    if name not in CAMPAIGNS:
        known = ", ".join(sorted(CAMPAIGNS))
        raise UnknownCampaignError(f"unknown campaign {name!r} (known: {known})")
    return _run(name, CAMPAIGNS[name], params, jobs, f"campaign {name!r}")


def _corpus_fold(rows, ctx: dict) -> dict:
    counts, _ = _tally(rows)
    if not counts["applied"]:
        ctx["counterexamples"].append({"mg": "", "failed": "claim applied to no corpus graph"})
    return {"applied": counts["applied"], "skipped_hypotheses": counts["rows"] - counts["applied"]}


def corpus_runner(name: str, source: str = "corpus", *, jobs: int = 1, **params) -> Callable:
    """A corpus run of campaign `name`, its parameters checked before any
    graph is read: called on graphs, it reruns the claim over them."""
    campaign = CAMPAIGNS.get(name)
    if campaign is None or not campaign.corpus:
        known = ", ".join(sorted(k for k, c in CAMPAIGNS.items() if c.corpus))
        raise UnknownCampaignError(
            f"campaign {name!r} has no corpus mode (supported: {known})"
        )
    runner = f"a corpus run of {name!r}"
    # The corpus is the population, so no population parameter applies.
    table = {"corpus": source, "graphs": 0, "seeds": _SEEDS}
    _parameters(table, params, runner)
    _check_jobs("jobs", jobs)

    def run(graphs: Sequence[Multigraph]) -> dict:
        table["graphs"] = len(graphs)
        corpus = campaign._replace(population=lambda ctx: graphs, fold=_corpus_fold, parameters=table)
        return _run(name, corpus, params, jobs, runner)

    return run


def run_corpus(
    name: str, graphs: Sequence[Multigraph], source: str = "corpus", *, jobs: int = 1, **params
) -> dict:
    """Rerun a campaign's claim over supplied graphs instead of its population."""
    return corpus_runner(name, source, jobs=jobs, **params)(graphs)
