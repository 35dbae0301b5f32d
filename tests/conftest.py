"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: permutation isomorphism, bitmask
matching DP, labeled-space enumeration. The library under test must agree
with these on small inputs; the oracles are the ground truth, not the
library.
"""

import re
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

import pytest
from hypothesis import strategies as st

from matchcov import Multigraph
from matchcov.errors import BoundExceededError
from matchcov.multigraph import bits

# acceptance verdicts, keyed by criterion number; printed after the run
ACCEPTANCE: dict[int, str] = {}
ACCEPTANCE_TOTAL = 11


def record_acceptance(idx: int, detail: str) -> None:
    ACCEPTANCE[idx] = f"PASS ({detail})"


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    match = re.search(r"test_(\d+)_", report.nodeid)
    if match and report.failed:
        ACCEPTANCE[int(match.group(1))] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for idx in sorted(ACCEPTANCE):
        terminalreporter.write_line(
            f"acceptance {idx:02d}/{ACCEPTANCE_TOTAL}: {ACCEPTANCE[idx]}"
        )


def brute_matching_number(g: Multigraph) -> int:
    """Maximum matching size by memoized backtracking over vertex subsets."""
    adj = [0] * g.n
    for e in range(g.m):
        u, v = g.endpoints(e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        # leave v unmatched
        out = best(mask & ~(1 << v))
        nbrs = adj[v] & mask & ~(1 << v)
        while nbrs:
            w = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            out = max(out, 1 + best(mask & ~(1 << v) & ~(1 << w)))
        return out

    result = best((1 << g.n) - 1)
    best.cache_clear()
    return result


def brute_perfect_matchings(g: Multigraph) -> list[frozenset[int]]:
    """All perfect matchings as frozensets of edge ids, by backtracking."""
    if g.n % 2:
        return []
    by_vertex: list[list[int]] = [[] for _ in range(g.n)]
    for e in range(g.m):
        u, v = g.endpoints(e)
        by_vertex[u].append(e)
        by_vertex[v].append(e)
    out: list[frozenset[int]] = []

    def extend(covered: int, chosen: tuple[int, ...]) -> None:
        if covered == (1 << g.n) - 1:
            out.append(frozenset(chosen))
            return
        v = 0
        while covered >> v & 1:
            v += 1
        for e in by_vertex[v]:
            a, b = g.endpoints(e)
            w = b if a == v else a
            if covered >> w & 1:
                continue
            extend(covered | 1 << v | 1 << w, chosen + (e,))

    extend(0, ())
    return out


def mc_by_definition(g: Multigraph) -> bool:
    """Matching covered straight from the definition."""
    if g.n < 2 or g.n % 2 or not g.is_connected():
        return False
    pms = brute_perfect_matchings(g)
    if not pms:
        return False
    hit = set()
    for pm in pms:
        hit |= pm
    return len(hit) == g.m


def _boundary(g: Multigraph, shore) -> set[int]:
    x = set(shore)
    return {e for e in range(g.m) if (g.endpoints(e)[0] in x) != (g.endpoints(e)[1] in x)}


def tight_by_definition(g: Multigraph, shore, pms=None) -> bool:
    """Every perfect matching has exactly one edge with one end in the
    shore; `pms` may pass brute_perfect_matchings(g) in."""
    boundary = _boundary(g, shore)
    if pms is None:
        pms = brute_perfect_matchings(g)
    return all(len(pm & boundary) == 1 for pm in pms)


def separating_by_pms(g: Multigraph, shore, pms=None) -> bool:
    """Every edge lies in a perfect matching with exactly one edge in the
    cut, which for a matching covered g is a separating cut (Carvalho,
    Lucchesi and Murty 2002); `pms` as for tight_by_definition."""
    boundary = _boundary(g, shore)
    if pms is None:
        pms = brute_perfect_matchings(g)
    hit = set()
    for pm in pms:
        if len(pm & boundary) == 1:
            hit |= pm
    return len(hit) == g.m


def separating_by_definition(g: Multigraph, shore) -> bool:
    """Both shore contractions are matching covered."""
    x = set(shore)
    rest = set(range(g.n)) - x
    return mc_by_definition(g.contract(rest)) and mc_by_definition(g.contract(x))


def naive_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    """Isomorphism by trying every vertex permutation. n <= 8 only."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degrees) != sorted(h.degrees):
        return False

    def multiset(graph: Multigraph):
        pairs = {}
        for e in range(graph.m):
            u, v = graph.endpoints(e)
            key = (min(u, v), max(u, v))
            pairs[key] = pairs.get(key, 0) + 1
        return pairs

    gp = multiset(g)
    hp = multiset(h)
    for perm in permutations(range(g.n)):
        mapped = {}
        for (u, v), c in gp.items():
            a, b = perm[u], perm[v]
            mapped[(min(a, b), max(a, b))] = c
        if mapped == hp:
            return True
    return False


def labeled_connected_simple(n: int):
    """Every labeled connected simple graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Multigraph(n, edges)
        if g.is_connected():
            yield g


def labeled_connected_multigraphs(n: int, mult_bound: int):
    """Every labeled connected multigraph on n vertices, multiplicity capped."""
    pairs = list(combinations(range(n), 2))
    for mults in product(range(mult_bound + 1), repeat=len(pairs)):
        edges = []
        for (u, v), c in zip(pairs, mults):
            edges.extend([(u, v)] * c)
        g = Multigraph(n, edges)
        if g.is_connected():
            yield g


# The canonical-labelling kernel as it stood before refinement was done per
# cell and leaves were compared as integers, kept verbatim as the oracle for
# `canon.canonical_labeling`: both must return the same (permutation, form).


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


def reference_canonical_labeling(g: Multigraph) -> tuple[tuple[int, ...], bytes]:
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


def reference_automorphisms(g: Multigraph) -> list[tuple[int, ...]]:
    """Every automorphism as a position permutation, in lexicographic
    order, by backtracking over images vertex by vertex within the
    equitable initial colors. `canon.automorphisms` reads the group off the
    canonical labelling's search instead; both must return the same list.
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


def reference_vertex_orbits(g: Multigraph) -> list[frozenset[int]]:
    """The orbits of `reference_automorphisms`, by least member."""
    perms = reference_automorphisms(g)
    orbits: list[frozenset[int]] = []
    for v in range(g.n):
        if all(v not in orbit for orbit in orbits):
            orbits.append(frozenset(p[v] for p in perms))
    return orbits


# The connected-graph enumerator as it stood before attach sets were pruned
# by the parent's automorphism group, kept as the oracle for
# `generate._connected_level`: a child Multigraph and a canonical form per
# attach mask, pruned only by twin swaps. Both must give the same graphs in
# the same order.


@lru_cache(maxsize=None)
def reference_connected_level(n: int, min_degree: int, target_n: int) -> tuple[Multigraph, ...]:
    """Connected graphs on n vertices feeding a target_n enumeration, with
    the first child seen of each class, in canonical-form order."""
    from matchcov.canon import _rows, _twins, canonical_form

    if n == 1:
        return (Multigraph(1, []),)
    out: dict[bytes, Multigraph] = {}
    slack = target_n - n
    for parent in reference_connected_level(n - 1, min_degree, target_n):
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


def reference_family_closure(max_n: int, k3_cap: int = 3, cap: int = 2, splice_cap=None):
    """The splice-family closure with no matrix pruning: every class matrix
    at every pair of vertex-orbit representatives, the first certificate
    kept per canonical form, in the library's sweep order."""
    from matchcov import wheels as w
    from matchcov.canon import canonical_form, vertex_orbits

    def catalog(bound, k3, c):
        specs = [
            w.WheelSpec(k, mults)
            for k in range(3, bound, 2)
            for mults in w.spoke_vectors(k, k3 if k == 3 else c)
        ]
        return [(w.make_wheel(spec)[0], spec) for spec in specs]

    def reps(g):
        return sorted(min(orbit) for orbit in vertex_orbits(g))

    sk3, sc = (k3_cap, cap) if splice_cap is None else (splice_cap, splice_cap)
    base = catalog(max_n - 2, sk3, sc)
    members = {}
    for wheel, spec in catalog(max_n, k3_cap, cap):
        members.setdefault(canonical_form(wheel), (wheel, w.WheelLeaf(spec)))
    frontier, seen = [], set()
    for wheel, spec in base:
        if canonical_form(wheel) not in seen:
            seen.add(canonical_form(wheel))
            frontier.append((wheel, w.WheelLeaf(spec)))
    while frontier:
        next_frontier = []
        for left, left_cert in frontier:
            for wheel, spec in base:
                if not 8 <= left.n + wheel.n - 2 <= max_n:
                    continue
                for u, v in product(reps(left), reps(wheel)):
                    if wheel.degree(v) != left.degree(u):
                        continue
                    if w.splice_site_violations(left, u, wheel, v):
                        continue
                    rows = [len(c) for c in w.boundary_classes(wheel, v)]
                    cols = [len(c) for c in w.boundary_classes(left, u)]
                    for matrix in w.theta_class_matrices(tuple(rows), tuple(cols)):
                        theta = w.theta_from_class_matrix(left, u, wheel, v, matrix)
                        if w.theta_violations(left, u, wheel, v, theta):
                            continue
                        built = w.splice(left, u, wheel, v, theta)
                        if canonical_form(built) in members:
                            continue
                        slots = w.boundary_slots(left, u)
                        perm = tuple(slots.index(theta[e]) for e in w.boundary_slots(wheel, v))
                        cert = w.SpliceNode(left_cert, spec, u, v, perm)
                        members[canonical_form(built)] = (built, cert)
                        next_frontier.append((built, cert))
        frontier = next_frontier
    return members


def least_in_orbit(perms):
    """The test "x is the lexicographically least of its images" under
    position permutations; p maps x to x[p[0]], x[p[1]], .... Duplicates
    and the identity (with it itemgetter(i), which returns a scalar) are
    dropped."""
    getters = [itemgetter(*p) for p in sorted(set(map(tuple, perms))) if p != tuple(range(len(p)))]
    return lambda x: not any(get(x) < x for get in getters)


def reference_pm_pair_groups(g: Multigraph) -> tuple[int, ...]:
    """Vertex masks: the lowest vertex u in no earlier group, with each such
    v that leaves G - u - v without a perfect matching, one query per pair."""
    full = rest = g.full_mask
    out = []
    while rest:
        group = low = rest & -rest
        for v in bits(rest ^ low):
            if not g.has_pm_mask(full ^ low ^ (1 << v)):
                group |= 1 << v
        rest ^= group
        out.append(group)
    return tuple(out)


def reference_separating_pairs(g: Multigraph) -> list[tuple[int, int]]:
    """Pairs x < y with G - x - y disconnected, one search per pair."""
    out = []
    for x, y in combinations(range(g.n), 2):
        within = g.full_mask ^ (1 << x) ^ (1 << y)
        if within and g.component_mask((within & -within).bit_length() - 1, within) != within:
            out.append((x, y))
    return out


# Pair multiplicities 0 and 1 four times as often as 2 and 3: at n <= 8,
# uniform draws are so dense that doubletons and near-bipartite graphs
# hardly occur.
MULTIPLICITY = st.sampled_from([0, 0, 0, 0, 1, 1, 1, 1, 2, 3])


@st.composite
def multigraphs(draw, max_n: int, even: bool):
    """Multigraphs on up to max_n vertices, each pair of multiplicity 0..3."""
    n = 2 * draw(st.integers(1, max_n // 2)) if even else draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mults = draw(st.lists(MULTIPLICITY, min_size=len(pairs), max_size=len(pairs)))
    return Multigraph(n, [pair for pair, cnt in zip(pairs, mults) for _ in range(cnt)])


@pytest.fixture(scope="session")
def connected_simple_upto_6():
    from matchcov import enumerate_connected_graphs

    pool = []
    for n in range(1, 7):
        pool.extend(enumerate_connected_graphs(n))
    return pool
