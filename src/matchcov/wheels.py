"""Wheels, splicing, the wheel-like predicate, and the recursive family of
odd-wheel splices with membership certificates.

Conventions fixed here and relied on by the test suite and the CLI:

* ``make_wheel`` puts the rim on vertices 0..k-1 (cycle edges first, in rim
  order) and the hub last, at index k; spoke i appears ``mults[i]`` times,
  grouped by rim vertex, after the rim edges.
* A splice of G at u with H at v keeps G's surviving vertices first (original
  relative order), then H's.  theta maps boundary edge ids of v in H to
  boundary edge ids of u in G; each mapped pair fuses to a single new edge.
* Certificates serialize theta as a permutation of boundary slot indices,
  slots sorted by edge id.
* One family step, `_extensions`, with certificates: `g_family_closure`
  runs it forward from the base wheels, and `search_G_certificate` from the
  certified side of a graph's separating cut whose other side is a base
  wheel, keeping the splice that builds the graph: no isomorphism is mapped.
* One splice-class rule: splice only at the `splice_sites` of a group of
  automorphisms, with the least class matrix of each `matrix_symmetries`
  orbit.  `site_splices` yields those splices of a site pair, and is the
  one pipeline lemma-3.9 and `g_family_closure` share: lemma-3.9 passes
  each wheel's hub-fixing group, the closure every graph's full group.
  `least_class_matrices` builds the least matrices, row by row, through
  `canon.orbit_representatives`; `theta_class_matrices` is the full sweep
  they are drawn from, and `count_class_matrices` its size.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from operator import le, sub
from typing import Iterator, Optional, Sequence, Union

from .canon import automorphisms, canonical_form, orbit_representatives
from .covered import is_brick, is_matching_covered, is_removable_edge, removable_doubletons, removable_edges
from .cuts import contractions, separating_shores
from .errors import (
    BadSpecError,
    BoundExceededError,
    ConditionViolatedError,
    DegreeMismatchError,
    MatchcovError,
    NotABijectionError,
    NotABrickError,
    NotMatchingCoveredError,
    NotOddWheelsError,
)
from .multigraph import Multigraph, _bits, _reach, per_graph

_GFAMILY_MAX_N = 14


@dataclass(frozen=True)
class WheelSpec:
    """Rim length k plus per-spoke multiplicities (index i = rim vertex i)."""

    k: int
    mults: tuple[int, ...]

    def __post_init__(self):
        if self.k < 3:
            raise BadSpecError(f"rim length must be >= 3, got {self.k}")
        if len(self.mults) != self.k:
            raise BadSpecError(f"need {self.k} spoke multiplicities, got {len(self.mults)}")
        if any(m < 1 for m in self.mults):
            raise BadSpecError("spoke multiplicities must be positive")


def make_wheel(spec: WheelSpec) -> tuple[Multigraph, int]:
    """Build the wheel and return (graph, hub vertex)."""
    k = spec.k
    edges = [(i, (i + 1) % k) for i in range(k)]
    for i, m in enumerate(spec.mults):
        edges.extend([(i, k)] * m)
    return Multigraph(k + 1, edges), k


def simple_wheel(k: int) -> tuple[Multigraph, int]:
    return make_wheel(WheelSpec(k, (1,) * k))


@per_graph
def odd_wheel_hubs(g: Multigraph) -> tuple[int, ...]:
    """The vertices h, ascending, for which g's underlying simple graph is
    an odd wheel with hub h: all four of an underlying K4, otherwise at
    most the one vertex adjacent to all others.  Parallel edges are allowed
    anywhere; only the underlying shape is tested."""
    n = g.n
    if n < 4 or n % 2 != 0:
        return ()
    adj = g.adj_masks
    for hub in range(n):
        rim = g.full_mask ^ 1 << hub
        if adj[hub] != rim:
            continue
        # The rim must be one cycle through all n - 1 other vertices: each
        # has two rim neighbours, and the lowest reaches them all.
        if any((adj[w] & rim).bit_count() != 2 for w in _bits(rim)):
            return ()
        if _reach(adj, (rim & -rim).bit_length() - 1, rim) != rim:
            return ()
        return tuple(range(4)) if n == 4 else (hub,)
    return ()


def boundary_slots(g: Multigraph, v: int) -> tuple[int, ...]:
    """Edge ids incident with v, ascending; the slot order for bijections."""
    return tuple(g.incident[v])


def _validate_theta(g: Multigraph, u: int, h: Multigraph, v: int, theta: dict[int, int]) -> None:
    du, dv = g.degree(u), h.degree(v)
    if du != dv:
        raise DegreeMismatchError(f"degree {du} at u vs {dv} at v")
    dom = set(boundary_slots(h, v))
    cod = set(boundary_slots(g, u))
    if set(theta.keys()) != dom or set(theta.values()) != cod or len(set(theta.values())) != len(theta):
        raise NotABijectionError("theta must biject the boundary of v onto the boundary of u")


def splice(g: Multigraph, u: int, h: Multigraph, v: int, theta: dict[int, int]) -> Multigraph:
    """Glue g - u to h - v, fusing each boundary edge e of v with theta(e)."""
    _validate_theta(g, u, h, v, theta)

    def remap_g(w: int) -> int:
        return w if w < u else w - 1

    def remap_h(y: int) -> int:
        base = g.n - 1
        return base + (y if y < v else y - 1)

    edges = [(remap_g(a), remap_g(b)) for a, b in g.edges if u not in (a, b)]
    edges += [(remap_h(a), remap_h(b)) for a, b in h.edges if v not in (a, b)]
    for e in boundary_slots(h, v):
        a, b = h.endpoints(e)
        y = b if a == v else a
        f = theta[e]
        c, d = g.endpoints(f)
        x = d if c == u else c
        edges.append((remap_g(x), remap_h(y)))
    return Multigraph(g.n + h.n - 2, edges)


@per_graph
def max_degree_set(g: Multigraph) -> frozenset[int]:
    top = g.max_degree()
    return frozenset(v for v in range(g.n) if g.degrees[v] == top)


def is_wheel_like(g: Multigraph) -> frozenset[int]:
    """All hubs h with |R and boundary(h)| = 1 for every removable class R.

    Empty set means not wheel-like.  Scans removable edges incrementally so
    the frequent negative case (two nonadjacent removable edges) exits before
    any doubleton work.
    """
    if not is_brick(g):
        raise NotABrickError("wheel-likeness is defined for bricks")
    cands = set(range(g.n))
    for e in range(g.m):
        if is_removable_edge(g, e):
            cands &= set(g.endpoints(e))
            if not cands:
                return frozenset()
    for (e, f) in removable_doubletons(g):
        eu, ev = g.endpoints(e)
        fu, fv = g.endpoints(f)
        cands &= {eu, ev} ^ {fu, fv}
        if not cands:
            return frozenset()
    return frozenset(cands)


def parallels_at_hub(g: Multigraph, hub: int) -> bool:
    """Does every parallel class of g have `hub` as an end?"""
    return all(hub in pair for pair, ids in g.parallel_classes.items() if len(ids) > 1)


def check_odd_wheel_splice(
    g: Multigraph, u: int, h: Multigraph, v: int, theta: dict[int, int]
) -> tuple[bool, tuple[str, ...]]:
    """Evaluate the three syntactic splice conditions for two odd wheels.

    Returns (all hold, violated condition ids).  The conditions hold when
    they all hold under some pair of hub designations (`odd_wheel_hubs`:
    K4 has four); otherwise the violations reported are those of the pair
    with the fewest, the least such pair on ties.
    """
    hubs_g, hubs_h = odd_wheel_hubs(g), odd_wheel_hubs(h)
    if not hubs_g or not hubs_h:
        raise NotOddWheelsError("both inputs must be odd wheels")
    _validate_theta(g, u, h, v, theta)
    fewest = min(
        (_splice_violations(g, a, u, h, b, v, theta) for a, b in product(hubs_g, hubs_h)),
        key=len,
    )
    return (not fewest, fewest)


def _splice_violations(
    g: Multigraph, hub_g: int, u: int, h: Multigraph, hub_h: int, v: int, theta: dict[int, int]
) -> tuple[str, ...]:
    """Violated conditions under one hub designation.  Condition 1: exactly
    one splice vertex is its wheel's hub and the hub-side wheel has >= 6
    vertices.  Condition 2: all parallels sit at the hubs.  Condition 3: the
    two rim edges at the non-hub splice vertex land on distinct,
    non-adjacent rim vertices of the hub-side wheel.
    """
    violations = []
    u_is_hub = u == hub_g
    v_is_hub = v == hub_h
    if u_is_hub == v_is_hub:
        violations.append("1")
    else:
        hub_side = g if u_is_hub else h
        if hub_side.n < 6:
            violations.append("1")

    if not (parallels_at_hub(g, hub_g) and parallels_at_hub(h, hub_h)):
        violations.append("2")

    if u_is_hub != v_is_hub:
        if u_is_hub:
            rim_graph, rim_hub, rim_v = h, hub_h, v
            hub_graph, hub_vertex = g, u
            to_hub_side = dict(theta)
        else:
            rim_graph, rim_hub, rim_v = g, hub_g, u
            hub_graph, hub_vertex = h, v
            to_hub_side = {f: e for e, f in theta.items()}
        rim_edges = [
            e
            for e in boundary_slots(rim_graph, rim_v)
            if rim_hub not in rim_graph.endpoints(e)
        ]
        ok3 = False
        if len(rim_edges) == 2:
            landing = []
            for e in rim_edges:
                f = to_hub_side[e]
                a, b = hub_graph.endpoints(f)
                landing.append(b if a == hub_vertex else a)
            x, y = landing
            ok3 = x != y and hub_graph.multiplicity(x, y) == 0
        if not ok3:
            violations.append("3")

    return tuple(violations)


# ---------------------------------------------------------------------------
# The recursive splice family.


def is_k4_plus(g: Multigraph) -> bool:
    """Underlying K4 with all parallels on a single endpoint pair."""
    if g.n != 4:
        return False
    if any(g.multiplicity(a, b) == 0 for a in range(4) for b in range(a + 1, 4)):
        return False
    fat = [pair for pair, ids in g.parallel_classes.items() if len(ids) > 1]
    return len(fat) <= 1


def is_g1_member(g: Multigraph) -> bool:
    """Is g an odd wheel with its parallels only at a hub, and a wheel-like
    brick (the base family membership test)?"""
    if not any(parallels_at_hub(g, hub) for hub in odd_wheel_hubs(g)):
        return False
    return is_brick(g) and bool(is_wheel_like(g))


def family_splice_violations(
    gj: Multigraph, u: int, hw: Multigraph, v: int, theta: dict[int, int]
) -> tuple[str, ...]:
    """Violated conditions for extending the family by splicing gj with the
    odd wheel hw.  Ids: "size" (result must have >= 8 vertices), "1", "2".
    Only "2" reads theta: "size" and "1" are `splice_site_violations`.

    The caller guarantees hw is a base-family member; gj is the built left
    graph.
    """
    return splice_site_violations(gj, u, hw, v) + theta_violations(gj, u, hw, v, theta)


def splice_site_violations(gj: Multigraph, u: int, hw: Multigraph, v: int) -> tuple[str, ...]:
    """The family conditions fixed by the splice site alone: "size", "1"."""
    violations = []
    if gj.n + hw.n - 2 < 8:
        violations.append("size")
    in_g = u in max_degree_set(gj)
    in_h = v in max_degree_set(hw)
    if hw.n == 4 and hw.is_simple():
        bad = in_g
    elif is_k4_plus(hw):
        bad = not in_h
    else:
        bad = in_g + in_h != 1
    if bad:
        violations.append("1")
    return tuple(violations)


def theta_violations(
    gj: Multigraph, u: int, hw: Multigraph, v: int, theta: dict[int, int]
) -> tuple[str, ...]:
    """Condition "2": with a 4-vertex wheel spliced at a vertex u outside
    gj's top degree set, no nonremovable edge at v may land next to it."""
    u_g = max_degree_set(gj)
    if hw.n != 4 or u in u_g:
        return ()
    removable = removable_edges(hw)
    for e in boundary_slots(hw, v):
        if e not in removable and not u_g.isdisjoint(gj.endpoints(theta[e])):
            return ("2",)
    return ()


@dataclass(frozen=True)
class WheelLeaf:
    spec: WheelSpec


@dataclass(frozen=True)
class SpliceNode:
    left: "GCertificate"
    wheel: WheelSpec
    u: int
    v: int
    theta: tuple[int, ...]


GCertificate = Union[WheelLeaf, SpliceNode]


def _theta_from_slots(g: Multigraph, u: int, h: Multigraph, v: int, perm: tuple[int, ...]) -> dict[int, int]:
    slots_g = boundary_slots(g, u)
    slots_h = boundary_slots(h, v)
    if sorted(perm) != list(range(len(slots_h))) or len(slots_g) != len(slots_h):
        raise NotABijectionError("theta permutation does not match the boundary sizes")
    return {slots_h[i]: slots_g[perm[i]] for i in range(len(slots_h))}


def build_from_certificate(cert: GCertificate) -> Multigraph:
    """The graph a certificate builds; ConditionViolatedError when any node
    of it fails a check of `verify_certificate`."""
    graph, problems = _walk_certificate(cert)
    if problems:
        raise ConditionViolatedError("; ".join(problems))
    return graph


def verify_certificate(cert: GCertificate) -> tuple[bool, tuple[str, ...]]:
    problems = _walk_certificate(cert)[1]
    return (not problems, problems)


def _walk_certificate(cert: GCertificate) -> tuple[Optional[Multigraph], tuple[str, ...]]:
    """(graph, problems) in one walk: every node's checks, and the graph
    built, None when a node could not be built."""
    report: list[str] = []
    graph = _verify(cert, "root", report)
    return graph, tuple(report)


def _verify(cert: GCertificate, path: str, report: list[str]) -> Optional[Multigraph]:
    if isinstance(cert, WheelLeaf):
        if cert.spec.k % 2 == 0:
            report.append(f"{path}: rim length must be odd")
            return None
        wheel, _hub = make_wheel(cert.spec)
        if not is_g1_member(wheel):
            report.append(f"{path}: leaf wheel is not a wheel-like odd wheel")
            return None
        return wheel

    left = _verify(cert.left, path + ".left", report)
    if cert.wheel.k % 2 == 0:
        report.append(f"{path}: spliced wheel rim length must be odd")
        return None
    wheel, _hub = make_wheel(cert.wheel)
    if not is_g1_member(wheel):
        report.append(f"{path}: spliced wheel is not a wheel-like odd wheel")
        return None
    if left is None:
        return None
    if not (0 <= cert.u < left.n and 0 <= cert.v < wheel.n):
        report.append(f"{path}: splice vertex out of range")
        return None
    try:
        theta = _theta_from_slots(left, cert.u, wheel, cert.v, cert.theta)
    except NotABijectionError as exc:
        report.append(f"{path}: {exc}")
        return None
    for cond in family_splice_violations(left, cert.u, wheel, cert.v, theta):
        if cond == "size":
            report.append(f"{path}: splice result has fewer than 8 vertices")
        else:
            report.append(f"{path}: family condition {cond} violated")
    return splice(left, cert.u, wheel, cert.v, theta)


def theta_class_matrices(
    row_sums: tuple[int, ...], col_sums: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonnegative integer matrices with the given row and column sums,
    in ascending lexicographic order of their tuples of rows.

    A bijection between two boundaries, taken up to swaps of parallel copies,
    is exactly such a matrix over the parallel classes on each side.
    """
    if sum(row_sums) != sum(col_sums):
        return
    if not row_sums:
        yield ()
        return
    last = len(row_sums) - 1

    def rows(r: int, caps: tuple[int, ...], acc: tuple) -> Iterator[tuple]:
        if r == last:
            # The column sums force the last row.
            yield acc + (caps,)
            return
        for row in _compositions(row_sums[r], len(caps)):
            if all(t <= c for t, c in zip(row, caps)):
                yield from rows(r + 1, tuple(c - t for c, t in zip(caps, row)), acc + (row,))

    yield from rows(0, tuple(col_sums), ())


def least_class_matrices(
    row_sums: tuple[int, ...], col_sums: tuple[int, ...], perms: Sequence[Sequence[int]]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The `theta_class_matrices` whose row-major tuple is the least of its
    images under perms (position permutations of that tuple, such as
    `matrix_symmetries`), in the same order, built by
    `canon.orbit_representatives`: no other matrix is completed.

    Rows fill in order, each one a `_compositions` tuple that fits the
    column sums left; the column sums force the last row.
    """
    if sum(row_sums) != sum(col_sums):
        return
    rows, cols = len(row_sums), len(col_sums)
    fits: dict[tuple, list] = {}

    def choices(prefix: tuple) -> Sequence[tuple[int, ...]]:
        r = len(prefix) // cols
        caps = tuple([c - sum(prefix[j::cols]) for j, c in enumerate(col_sums)])
        if r == rows - 1:
            return (caps,)
        got = fits.get((r, caps))
        if got is None:
            got = fits[r, caps] = [
                row for row in _compositions(row_sums[r], cols) if all(map(le, row, caps))
            ]
        return got

    for flat in orbit_representatives(perms, [cols] * rows, choices):
        yield tuple(flat[r * cols : (r + 1) * cols] for r in range(rows))


def count_class_matrices(row_sums: tuple[int, ...], col_sums: tuple[int, ...]) -> int:
    """len(list(theta_class_matrices(row_sums, col_sums))), counted row by
    row with a memo over (row, column sums left) instead of built. The
    count does not depend on the order of the columns, so the column sums
    left are kept sorted."""
    if sum(row_sums) != sum(col_sums):
        return 0

    @lru_cache(maxsize=None)
    def count(r: int, caps: tuple[int, ...]) -> int:
        if r >= len(row_sums) - 1:
            return 1
        return sum(
            count(r + 1, tuple(sorted(map(sub, caps, row))))
            for row in _compositions(row_sums[r], len(caps))
            if all(map(le, row, caps))
        )

    return count(0, tuple(sorted(col_sums)))


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """Tuples of `parts` nonnegative integers summing to total, ascending."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple(
        (t, *rest) for t in range(total + 1) for rest in _compositions(total - t, parts - 1)
    )


def boundary_classes(g: Multigraph, v: int) -> tuple[tuple[int, ...], ...]:
    """Parallel classes of the boundary of v: edge-id lists grouped by the
    other endpoint, ordered by that endpoint."""
    return _boundary_classes(g)[v]


@per_graph
def _boundary_classes(g: Multigraph) -> tuple:
    """boundary_classes of every vertex, built once per graph."""
    groups: list[dict[int, list[int]]] = [{} for _ in range(g.n)]
    for e, (a, b) in enumerate(g.edges):
        groups[a].setdefault(b, []).append(e)
        groups[b].setdefault(a, []).append(e)
    return tuple(tuple(tuple(at[w]) for w in sorted(at)) for at in groups)


@dataclass(frozen=True)
class SpliceSite:
    """A splice vertex of `graph`, with what every splice there reuses."""

    graph: Multigraph
    vertex: int
    class_sizes: tuple[int, ...]
    # Permutations of the boundary classes at `vertex` (class i goes to
    # action[i]) induced by the group elements fixing `vertex`.
    actions: tuple[tuple[int, ...], ...]


def splice_sites(g: Multigraph, group: Sequence[Sequence[int]]) -> list[SpliceSite]:
    """The least vertex of each orbit of `group`, a group of automorphisms
    of g, ascending: the splice sites that stand for all of g's."""
    sites = []
    for vertex in range(g.n):
        if any(p[vertex] < vertex for p in group):
            continue
        sizes = tuple(len(c) for c in boundary_classes(g, vertex))
        # boundary_classes orders the classes by their other endpoint.
        index = {w: i for i, w in enumerate(sorted(g.neighbors(vertex)))}
        actions = {tuple(index[p[w]] for w in index) for p in group if p[vertex] == vertex}
        sites.append(SpliceSite(g, vertex, sizes, tuple(sorted(actions))))
    return sites


def matrix_symmetries(a: SpliceSite, b: SpliceSite) -> list[tuple[int, ...]]:
    """Position permutations of a row-major class matrix of the splice at
    a with b (rows the classes at b, columns those at a) that build an
    isomorphic splice: each pair of class actions sends entry (i, j) to
    (rperm[i], cperm[j]), and for a self-splice (a is b) entry (j, i) too."""
    rows, cols = len(b.class_sizes), len(a.class_sizes)
    perms = []
    flips = (False, True) if a is b else (False,)
    for rperm, cperm, transpose in product(b.actions, a.actions, flips):
        index = [0] * (rows * cols)
        for i, j in product(range(rows), range(cols)):
            index[rperm[i] * cols + cperm[j]] = j * cols + i if transpose else i * cols + j
        perms.append(tuple(index))
    return perms


def theta_from_class_matrix(
    g: Multigraph, u: int, h: Multigraph, v: int, matrix: tuple[tuple[int, ...], ...]
) -> dict[int, int]:
    """Concrete slot bijection realizing a class-assignment matrix.

    Rows index the classes at v in h, columns the classes at u in g; entry
    (i, j) says how many v-slots of class i map into class j.  Slots are
    consumed in ascending edge-id order on both sides.
    """
    h_classes = boundary_classes(h, v)
    g_classes = boundary_classes(g, u)
    taken = [0] * len(g_classes)
    theta: dict[int, int] = {}
    for i, row in enumerate(matrix):
        pos = 0
        for j, t in enumerate(row):
            for _ in range(t):
                theta[h_classes[i][pos]] = g_classes[j][taken[j]]
                pos += 1
                taken[j] += 1
    return theta


# Least class matrices by site-pair shape: class sizes and actions at both
# sites, and whether they are one. At bound 10, 564 closure pairs share 25.
_least_matrices: dict[tuple, list] = {}


def site_splices(a: SpliceSite, b: SpliceSite) -> Iterator[tuple[tuple, dict[int, int]]]:
    """(class matrix, theta) for the splices of a.graph at a.vertex with
    b.graph at b.vertex, one per `matrix_symmetries(a, b)` orbit: its least
    matrix, which comes first, builds the same graph under the same
    conditions. Ascending, as `least_class_matrices` builds them."""
    shape = (b.class_sizes, b.actions, a.class_sizes, a.actions, a is b)
    if shape not in _least_matrices:
        symmetries = matrix_symmetries(a, b)
        _least_matrices[shape] = list(least_class_matrices(b.class_sizes, a.class_sizes, symmetries))
    for matrix in _least_matrices[shape]:
        yield matrix, theta_from_class_matrix(a.graph, a.vertex, b.graph, b.vertex, matrix)


def spoke_vectors(k: int, mult_bound: int) -> Iterator[tuple[int, ...]]:
    """Spoke multiplicity vectors of the k-wheel, each entry 1..mult_bound,
    one per class under the hub-fixing symmetries of the simple k-wheel
    (spoke i ends at rim vertex i): the least member of each, ascending."""
    wheel, hub = simple_wheel(k)
    values = [(m,) for m in range(1, mult_bound + 1)]
    return orbit_representatives(
        (p[:k] for p in automorphisms(wheel) if p[hub] == hub), [1] * k, lambda _prefix: values
    )


def _g1_catalog(max_n: int) -> list[tuple[Multigraph, WheelSpec]]:
    """Base-family wheels up to max_n vertices, spokes up to 3 on a K4 and
    up to 2 on a longer rim, (graph, spec) per `spoke_vectors` class, so no
    two are isomorphic: a K4's spokes name its multiset of multiplicities,
    and a longer wheel's isomorphisms fix its hub."""
    specs = [
        WheelSpec(k, mults)
        for k in range(3, max_n, 2)
        for mults in spoke_vectors(k, 3 if k == 3 else 2)
    ]
    return [(make_wheel(spec)[0], spec) for spec in specs]


def _extensions(
    left: Multigraph, left_cert: GCertificate, partners: Sequence[tuple[Multigraph, WheelSpec, list]]
) -> Iterator[tuple[Multigraph, SpliceNode]]:
    """One family step: (splice, certificate) for each splice of the built
    graph `left` with a partner (wheel, spec, splice sites) that meets the
    family conditions, one per splice class, in sweep order."""
    if not partners:
        return
    left_sites = splice_sites(left, automorphisms(left))
    for wheel, spec, wheel_sites in partners:
        for a in left_sites:
            u, du = a.vertex, left.degree(a.vertex)
            for b in wheel_sites:
                v = b.vertex
                if wheel.degree(v) != du or splice_site_violations(left, u, wheel, v):
                    continue
                slots = boundary_slots(left, u)
                for _matrix, theta in site_splices(a, b):
                    if not theta_violations(left, u, wheel, v, theta):
                        perm = tuple(slots.index(theta[e]) for e in boundary_slots(wheel, v))
                        yield splice(left, u, wheel, v, theta), SpliceNode(left_cert, spec, u, v, perm)


def g_family_closure(max_n: int) -> dict[bytes, tuple[Multigraph, GCertificate]]:
    """Forward closure of the splice family up to max_n vertices.

    Returns canonical form -> (graph, certificate), first certificate found
    under a deterministic sweep.  The family is infinite in the
    multiplicity direction, so the base wheels are those of `_g1_catalog`.
    """
    if max_n > _GFAMILY_MAX_N:
        raise BoundExceededError(f"family closure capped at {_GFAMILY_MAX_N} vertices")
    # Only wheels small enough to splice inside max_n (smallest partner has
    # four vertices) take part in splice steps.
    base = _g1_catalog(max_n - 2)
    members = {canonical_form(w): (w, WheelLeaf(s)) for w, s in _g1_catalog(max_n)}
    frontier: list[tuple[Multigraph, GCertificate]] = [(w, WheelLeaf(s)) for w, s in base]
    partners = [(w, s, splice_sites(w, automorphisms(w))) for w, s in base]
    # The catalog ascends in wheel size, so the partners that fit one left
    # graph, 8 <= left.n + wheel.n - 2 <= max_n, form one slice.
    sizes = [w.n for w, _s, _sites in partners]
    while frontier:
        next_frontier: list[tuple[Multigraph, GCertificate]] = []
        for left, left_cert in frontier:
            fits = partners[
                bisect_left(sizes, 10 - left.n) : bisect_right(sizes, max_n + 2 - left.n)
            ]
            for built, cert in _extensions(left, left_cert, fits):
                key = canonical_form(built)
                if key not in members:
                    members[key] = (built, cert)
                    next_frontier.append((built, cert))
        frontier = next_frontier
    return members


def _wheel_spec(h: Multigraph) -> Optional[WheelSpec]:
    """The spec of h read at a hub holding every parallel, the rim in cycle
    order, when h is a base wheel (`is_g1_member`); otherwise None."""
    if not is_g1_member(h):
        return None
    hub = next(x for x in odd_wheel_hubs(h) if parallels_at_hub(h, x))
    rim = [min(h.neighbors(hub))]
    while len(rim) < h.n - 1:
        rim.append(min(h.neighbors(rim[-1]) - {hub, *rim[-2:]}))
    return WheelSpec(len(rim), tuple(h.multiplicity(x, hub) for x in rim))


def search_G_certificate(g: Multigraph) -> Optional[GCertificate]:
    """Certificate for membership in the splice family, or None, read from
    g's own separating cuts: a splice L(u) with W(v) leaves one whose two
    contractions are L and W.  Members are matching covered, not all bricks;
    past the perfect matching table's vertex cap only a wheel is answered."""
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("certificate search expects a matching covered graph")
    return _certify(g, {})[1]


def _certify(h: Multigraph, memo: dict) -> tuple[Optional[Multigraph], Optional[GCertificate]]:
    """(built graph, certificate) for the matching covered graph h, or
    (None, None); memo maps canonical form to the answer within one search."""
    spec = _wheel_spec(h)
    if spec is not None:
        return make_wheel(spec)[0], WheelLeaf(spec)
    # A family splice has at least 8 vertices.
    if h.n < 8:
        return None, None
    key = canonical_form(h)
    if key not in memo:
        memo[key] = next(_splices_building(h, key, memo), (None, None))
    return memo[key]


def _splices_building(h: Multigraph, key: bytes, memo: dict) -> Iterator[tuple[Multigraph, SpliceNode]]:
    """The splices of a certified graph with a base wheel, each read off one
    of h's separating cuts, that build h, in shore order."""
    for shore in separating_shores(h):
        for w_side, l_side in permutations(contractions(h, shore)):
            # The wheel's shape is the cheap test; certifying costs more.
            if not odd_wheel_hubs(w_side):
                continue
            left, left_cert = _certify(l_side, memo)
            wheel_spec = None if left is None else _wheel_spec(w_side)
            if wheel_spec is None:
                continue
            wheel = make_wheel(wheel_spec)[0]
            partner = (wheel, wheel_spec, splice_sites(wheel, automorphisms(wheel)))
            for built, cert in _extensions(left, left_cert, [partner]):
                if canonical_form(built) == key:
                    yield built, cert


# --- certificate serialization ---------------------------------------------


def cert_to_obj(cert: GCertificate):
    if isinstance(cert, WheelLeaf):
        return {"wheel": {"k": cert.spec.k, "mults": list(cert.spec.mults)}}
    return {
        "splice": {
            "left": cert_to_obj(cert.left),
            "wheel": {"k": cert.wheel.k, "mults": list(cert.wheel.mults)},
            "u": cert.u,
            "v": cert.v,
            "theta": list(cert.theta),
        }
    }


def _integer(x) -> int:
    """A certificate number: an int, and not a bool."""
    if type(x) is not int:
        raise BadSpecError(f"malformed certificate node: {x!r} is not an integer")
    return x


def _spec_from_obj(w) -> WheelSpec:
    return WheelSpec(_integer(w["k"]), tuple(map(_integer, w["mults"])))


def cert_from_obj(obj) -> GCertificate:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise BadSpecError("certificate node must be a one-key object")
    try:
        if "wheel" in obj:
            return WheelLeaf(_spec_from_obj(obj["wheel"]))
        if "splice" in obj:
            s = obj["splice"]
            return SpliceNode(
                left=cert_from_obj(s["left"]),
                wheel=_spec_from_obj(s["wheel"]),
                u=_integer(s["u"]),
                v=_integer(s["v"]),
                theta=tuple(map(_integer, s["theta"])),
            )
    except MatchcovError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise BadSpecError(f"malformed certificate node: {type(exc).__name__}: {exc}") from exc
    raise BadSpecError("certificate node must be 'wheel' or 'splice'")
