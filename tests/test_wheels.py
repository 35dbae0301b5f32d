"""Wheels, splicing, the splice conditions, and family certificates."""

import hashlib
import itertools

import pytest

from matchcov import (
    Multigraph,
    SpliceNode,
    WheelLeaf,
    WheelSpec,
    build_from_certificate,
    canonical_form,
    check_odd_wheel_splice,
    g_family_closure,
    is_brick,
    is_matching_covered,
    is_wheel_like,
    make_wheel,
    removable_classes,
    search_G_certificate,
    simple_wheel,
    splice,
    verify_certificate,
)
from matchcov.errors import (
    BadSpecError,
    DegreeMismatchError,
    NotABijectionError,
    NotOddWheelsError,
)
from matchcov.wheels import (
    boundary_slots,
    cert_from_obj,
    cert_to_obj,
    family_splice_violations,
    is_k4_plus,
    spoke_vectors,
    theta_class_matrices,
    theta_from_class_matrix,
)
from matchcov.generate import enumerate_connected_graphs, multiplicity_classes
from matchcov.graphio import format_mg
from matchcov.zoo import complete_graph, prism_graph

from conftest import reference_family_closure

# sha256 over g_family_closure(8): each member's canonical key, (n, edges)
# and certificate, in dict order. Taken before the splice search checked
# its site conditions once per site.
CLOSURE_8_DIGEST = "988fbfa9efe16f628e671e60afbff540f22bf67662417187dc754cb691a11f4c"


def _theta_by_slots(g, u, h, v, pairs):
    """Build theta from explicit (h_slot, g_slot) pairs plus a default fill."""
    gs = list(boundary_slots(g, u))
    hs = list(boundary_slots(h, v))
    theta = dict(pairs)
    rest_h = [e for e in hs if e not in theta]
    rest_g = [e for e in gs if e not in theta.values()]
    for e, f in zip(rest_h, rest_g):
        theta[e] = f
    return theta


def test_make_wheel_shapes():
    w5, hub = make_wheel(WheelSpec(5, (1, 1, 1, 1, 1)))
    assert w5.n == 6 and w5.m == 10
    assert w5.degree(hub) == 5
    assert all(w5.degree(x) == 3 for x in range(w5.n) if x != hub)
    heavy, hub3 = make_wheel(WheelSpec(3, (1, 1, 2)))
    assert heavy.n == 4 and heavy.m == 7
    assert heavy.degree(hub3) == 4
    assert simple_wheel(5)[0].m == 10


def test_wheel_spec_validation():
    with pytest.raises(BadSpecError):
        make_wheel(WheelSpec(3, (1,)))
    with pytest.raises(BadSpecError):
        make_wheel(WheelSpec(3, (1, 1, 0)))
    with pytest.raises(BadSpecError):
        make_wheel(WheelSpec(2, (1, 1)))


def test_odd_wheels_are_wheel_like():
    for k in (3, 5, 7):
        wheel, hub = simple_wheel(k)
        hubs = is_wheel_like(wheel)
        assert hub in hubs
    # K4 is vertex-transitive: every vertex works as the hub
    assert is_wheel_like(complete_graph(4)) == frozenset(range(4))
    assert is_wheel_like(prism_graph()) == frozenset()


def test_wheel_like_definition_on_w5():
    w5, hub = simple_wheel(5)
    classes = removable_classes(w5)
    boundary = set(w5.incident[hub])
    for cls in classes:
        edges = {cls.edge} if hasattr(cls, "edge") else set(cls.edges)
        assert len(edges & boundary) == 1


def test_splice_preserves_degrees():
    g, _ = make_wheel(WheelSpec(5, (2, 1, 1, 1, 1)))
    h, hub_h = make_wheel(WheelSpec(5, (1, 1, 1, 1, 1)))
    u = next(x for x in range(g.n) if g.degree(x) == 4)
    rim_h = next(x for x in range(h.n) if x != hub_h)
    # pick a degree-matched v by doubling one spoke on the h side
    h2, hub2 = make_wheel(WheelSpec(5, (2, 1, 1, 1, 1)))
    v = next(x for x in range(h2.n) if x != hub2 and h2.degree(x) == 4)
    theta = _theta_by_slots(g, u, h2, v, [])
    res = splice(g, u, h2, v, theta)
    assert res.n == g.n + h2.n - 2
    assert res.m == g.m + h2.m - g.degree(u)
    expect = sorted(
        [g.degree(x) for x in range(g.n) if x != u]
        + [h2.degree(x) for x in range(h2.n) if x != v]
    )
    assert sorted(res.degrees) == expect


def test_splice_validation():
    k4 = complete_graph(4)
    w5, hub = simple_wheel(5)
    gs = boundary_slots(k4, 0)
    with pytest.raises(DegreeMismatchError):
        splice(k4, 0, w5, hub, {})
    hs = boundary_slots(k4, 1)
    bad = {hs[0]: gs[0], hs[1]: gs[0], hs[2]: gs[2]}  # not injective
    with pytest.raises(NotABijectionError):
        splice(k4, 0, k4, 1, bad)


def test_k4_splices_make_the_prism_only():
    k4 = complete_graph(4)
    forms = set()
    for u in range(4):
        for v in range(4):
            gs = boundary_slots(k4, u)
            hs = boundary_slots(k4, v)
            for perm in itertools.permutations(range(3)):
                theta = {hs[i]: gs[perm[i]] for i in range(3)}
                res = splice(k4, u, k4, v, theta)
                assert is_matching_covered(res)
                forms.add(canonical_form(res))
    assert forms == {canonical_form(prism_graph())}


def test_splice_conditions_positive_instance():
    # a triple spoke parks the parallel class at the deleted rim vertex,
    # so the splice of two 5-wheels stays simple and the conditions hold
    g, hub_g = make_wheel(WheelSpec(5, (3, 1, 1, 1, 1)))
    h, hub_h = make_wheel(WheelSpec(5, (1, 1, 1, 1, 1)))
    u = next(x for x in range(g.n) if x != hub_g and g.degree(x) == 5)
    v = hub_h
    hs = boundary_slots(h, v)
    u_rim = [e for e in boundary_slots(g, u) if hub_g not in g.endpoints(e)]

    def spoke_to(r):
        return next(e for e in hs if r in h.endpoints(e))

    # rim vertices 0 and 2 are non-adjacent on the 5-cycle
    theta = _theta_by_slots(g, u, h, v, [(spoke_to(0), u_rim[0]), (spoke_to(2), u_rim[1])])
    ok, violations = check_odd_wheel_splice(g, u, h, v, theta)
    assert ok and violations == ()
    res = splice(g, u, h, v, theta)
    assert res.is_simple() and is_brick(res)
    assert is_wheel_like(res), "conditions hold, so the splice is wheel-like"


def test_splice_conditions_adjacent_rim_violation():
    g, hub_g = make_wheel(WheelSpec(5, (3, 1, 1, 1, 1)))
    h, hub_h = make_wheel(WheelSpec(5, (1, 1, 1, 1, 1)))
    u = next(x for x in range(g.n) if x != hub_g and g.degree(x) == 5)
    v = hub_h
    hs = boundary_slots(h, v)
    u_rim = [e for e in boundary_slots(g, u) if hub_g not in g.endpoints(e)]

    def spoke_to(r):
        return next(e for e in hs if r in h.endpoints(e))

    # rim vertices 0 and 1 are adjacent: condition 3 must fail
    theta = _theta_by_slots(g, u, h, v, [(spoke_to(0), u_rim[0]), (spoke_to(1), u_rim[1])])
    ok, violations = check_odd_wheel_splice(g, u, h, v, theta)
    assert not ok and "3" in violations
    res = splice(g, u, h, v, theta)
    if is_brick(res):
        assert not is_wheel_like(res), "violated conditions must not give wheel-like"


def test_splice_conditions_hub_hub_violation():
    # both splice vertices hubs: condition 1 fails
    g, hub_g = make_wheel(WheelSpec(5, (1, 1, 1, 1, 1)))
    h, hub_h = make_wheel(WheelSpec(5, (1, 1, 1, 1, 1)))
    theta = _theta_by_slots(g, hub_g, h, hub_h, [])
    ok, violations = check_odd_wheel_splice(g, hub_g, h, hub_h, theta)
    assert not ok and "1" in violations


def test_splice_conditions_rim_parallel_violation():
    # parallels away from the hub violate condition 2
    rim = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    spokes = [(i, 5) for i in range(5)]
    g = Multigraph(6, rim + [(0, 1)] + spokes)  # doubled rim edge
    hub_g = 5
    h, hub_h = make_wheel(WheelSpec(5, (3, 1, 1, 1, 1)))
    v = next(x for x in range(h.n) if x != hub_h and h.degree(x) == 5)
    assert g.degree(hub_g) == 5 == h.degree(v)
    theta = _theta_by_slots(h, v, g, hub_g, [])
    # orientation: the non-hub splice vertex v sits on h, the hub side is g
    ok, violations = check_odd_wheel_splice(h, v, g, hub_g, theta)
    assert not ok and "2" in violations


def test_splice_conditions_k4_every_hub():
    # K4 may take any vertex as its hub.  With the triple spoke at vertex
    # 2, vertex 2 is a hub that carries every parallel, and the splice
    # vertex 3 is then a rim vertex: the conditions hold under that
    # designation, and the splice is wheel-like.
    g, hub_g = make_wheel(WheelSpec(3, (1, 1, 3)))
    h, hub_h = simple_wheel(5)
    matrix = ((0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 0, 1), (1, 0, 0))
    theta = theta_from_class_matrix(g, hub_g, h, hub_h, matrix)
    ok, violations = check_odd_wheel_splice(g, hub_g, h, hub_h, theta)
    assert ok and violations == ()
    res = splice(g, hub_g, h, hub_h, theta)
    assert is_brick(res) and is_wheel_like(res)


def test_check_rejects_non_wheels():
    k4 = complete_graph(4)
    pr = prism_graph()
    with pytest.raises(NotOddWheelsError):
        check_odd_wheel_splice(pr, 0, k4, 3, {})


def test_is_k4_plus():
    assert is_k4_plus(complete_graph(4))
    assert is_k4_plus(make_wheel(WheelSpec(3, (1, 1, 3)))[0])
    assert not is_k4_plus(make_wheel(WheelSpec(3, (1, 2, 2)))[0])
    assert not is_k4_plus(simple_wheel(5)[0])


def test_family_splice_k4_branch():
    # simple K4 second factor: u must avoid the max-degree set of the left
    k4 = complete_graph(4)
    w5, hub = make_wheel(WheelSpec(3, (1, 1, 1)))
    left, lhub = simple_wheel(5)
    # u = a rim vertex (degree 3 matches K4), U(left) = {hub}
    u = next(x for x in range(left.n) if x != lhub)
    theta = _theta_by_slots(left, u, k4, 0, [])
    violations = family_splice_violations(left, u, k4, 0, theta)
    assert "1" not in violations
    # splicing at the hub of a 3-regular-free graph: need degree match, so
    # check the rule on a K4 left instead, where U is everything
    theta2 = _theta_by_slots(k4, 1, k4, 0, [])
    violations2 = family_splice_violations(k4, 1, k4, 0, theta2)
    assert "1" in violations2 or "size" in violations2


def test_closure_small_bound_is_leaves_only():
    members = g_family_closure(6)
    assert len(members) == 18
    for key, (graph, cert) in members.items():
        assert isinstance(cert, WheelLeaf)
        assert canonical_form(graph) == key
        ok, problems = verify_certificate(cert)
        assert ok, problems


def test_closure_members_verify_and_rebuild():
    members = g_family_closure(8)
    assert len(members) > 18
    splice_count = 0
    for key, (graph, cert) in members.items():
        ok, problems = verify_certificate(cert)
        assert ok, problems
        assert canonical_form(build_from_certificate(cert)) == key
        if isinstance(cert, SpliceNode):
            splice_count += 1
    assert splice_count > 0
    # closure grows monotonically with the bound
    assert set(g_family_closure(6)) <= set(members)


def test_certificate_search():
    w5, _ = simple_wheel(5)
    cert = search_G_certificate(w5)
    assert isinstance(cert, WheelLeaf)
    assert search_G_certificate(prism_graph()) is None


def test_certificate_search_reaches_heavy_spoke_splices():
    # A simple 8-vertex wheel-like brick whose splice goes through a wheel
    # with a spoke heavier than the closure's caps: the search reads that
    # wheel off one of the brick's own cuts.
    edges = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (0, 6)]
    edges += [(1, 6), (2, 6), (3, 6), (4, 6), (0, 7), (5, 7), (6, 7)]
    g = Multigraph(8, edges)
    assert is_brick(g) and is_wheel_like(g)
    assert canonical_form(g) not in g_family_closure(8)
    cert = search_G_certificate(g)
    assert cert is not None and verify_certificate(cert)[0]
    assert canonical_form(build_from_certificate(cert)) == canonical_form(g)


def test_certificate_json_round_trip():
    members = g_family_closure(8)
    done = 0
    for key, (graph, cert) in members.items():
        if not isinstance(cert, SpliceNode):
            continue
        obj = cert_to_obj(cert)
        back = cert_from_obj(obj)
        assert cert_to_obj(back) == obj
        assert canonical_form(build_from_certificate(back)) == key
        done += 1
        if done >= 5:
            break
    assert done == 5


def test_verify_certificate_rejects_tampering():
    members = g_family_closure(8)
    node = next(c for _, c in members.values() if isinstance(c, SpliceNode))
    theta = list(node.theta)
    theta[0] = theta[1]  # no longer a bijection
    bad = SpliceNode(node.left, node.wheel, node.u, node.v, tuple(theta))
    ok, problems = verify_certificate(bad)
    assert not ok and problems
    bad_u = SpliceNode(node.left, node.wheel, 99, node.v, node.theta)
    ok2, problems2 = verify_certificate(bad_u)
    assert not ok2 and problems2


def test_spoke_vectors_one_per_wheel_class():
    # Beyond the 3-wheel the hub is the one vertex of top degree, so two
    # spoke vectors give isomorphic wheels exactly when a rim rotation or
    # reflection maps one onto the other. A K4's spoke vector names its
    # multiset of multiplicities. The family closure relies on both.
    for k, bound in ((3, 4), (5, 2), (5, 3), (7, 2)):
        vecs = list(spoke_vectors(k, bound))
        assert vecs == sorted(vecs)
        forms = [canonical_form(make_wheel(WheelSpec(k, v))[0]) for v in vecs]
        every = {
            canonical_form(make_wheel(WheelSpec(k, v))[0])
            for v in itertools.product(range(1, bound + 1), repeat=k)
        }
        assert len(set(forms)) == len(forms) and set(forms) == every
    # bracelets of three beads in three colours
    assert len(list(spoke_vectors(3, 3))) == 10


def _closure_digest(members):
    h = hashlib.sha256()
    for key, (g, cert) in members.items():
        h.update(repr((key, (g.n, g.edges), cert_to_obj(cert))).encode())
    return h.hexdigest()


def test_closure_members_and_certificates_pinned():
    assert _closure_digest(g_family_closure(8)) == CLOSURE_8_DIGEST


def test_closure_matches_unpruned_reference():
    # fig-g3's default bound; the pinned digests cover bound 8 only. The
    # closure keeps the least class matrix of each symmetry class, and the
    # reference tries them all: same members, order and certificates.
    got, want = g_family_closure(10), reference_family_closure(10)
    assert list(got) == list(want)
    for key, (graph, cert) in want.items():
        assert (got[key][0].n, got[key][0].edges, got[key][1]) == (graph.n, graph.edges, cert)


def _class_matrices_oracle(row_sums, col_sums):
    rows, cols = len(row_sums), len(col_sums)
    bounds = [range(min(r, c) + 1) for r in row_sums for c in col_sums]
    found = []
    for flat in itertools.product(*bounds):
        matrix = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))
        if tuple(map(sum, matrix)) == row_sums and all(
            sum(row[j] for row in matrix) == c for j, c in enumerate(col_sums)
        ):
            found.append(matrix)
    return sorted(found)


def test_theta_class_matrices_order_matches_oracle():
    # Every shape up to 3 x 4 with row and column sums up to 4 in total,
    # the empty shape, zero sums and unequal totals included.
    def sums(parts):
        return [t for t in itertools.product(range(5), repeat=parts) if sum(t) <= 4]

    shapes = 0
    for rows in range(4):
        for cols in range(5):
            for row_sums in sums(rows):
                for col_sums in sums(cols):
                    got = list(theta_class_matrices(row_sums, col_sums))
                    assert got == _class_matrices_oracle(row_sums, col_sums), (row_sums, col_sums)
                    shapes += 1
    assert list(theta_class_matrices((), ())) == [()]
    assert list(theta_class_matrices((0, 0), ())) == [((), ())]
    assert list(theta_class_matrices((), (0, 0))) == [()]
    assert list(theta_class_matrices((1, 2), (2,))) == []
    assert shapes == 7056


def test_top_down_search_matches_reference_closure():
    # The closure with leaf caps 3 and 2 and splice spokes up to 5, complete
    # for simple members on up to 8 vertices (a splice deletes the end of a
    # spoke of multiplicity m and leaves the other end degree m + 2), and
    # for every multiplicity-2 graph on up to 6 vertices (no splice there).
    reference = reference_family_closure(8, 3, 2, 5)
    simple = [g for n in (4, 6, 8) for g in enumerate_connected_graphs(n, min_degree=3) if is_brick(g)]
    graphs = simple + [
        m for g in simple if g.n <= 6 for m in multiplicity_classes(g, 2) if not m.is_simple()
    ]
    assert len(graphs) == 9837
    certified = 0
    for g in graphs:
        key = canonical_form(g)
        cert = search_G_certificate(g)
        assert (cert is not None) == (key in reference), format_mg(g)
        if cert is not None:
            assert canonical_form(build_from_certificate(cert)) == key
            certified += 1
    assert certified == 22


def test_top_down_search_certifies_every_closure_member():
    members = reference_family_closure(8)
    assert len(members) == 94
    for key, (g, _cert) in members.items():
        cert = search_G_certificate(g)
        assert cert is not None and canonical_form(build_from_certificate(cert)) == key
