"""Core container behavior: construction, views, contraction."""

import pytest

from matchcov import Multigraph
from matchcov.errors import LoopEdgeError, VertexOutOfRangeError
from matchcov.zoo import complete_graph, cycle_graph, path_graph, prism_graph, star_graph


def test_basic_counts():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert g.n == 4
    assert g.m == 5
    assert g.degree(0) == 3
    assert g.degrees == (3, 2, 3, 2)
    assert g.max_degree() == 3
    assert g.min_degree() == 2


def test_parallel_edges_kept_separate():
    g = Multigraph(2, [(0, 1), (0, 1), (1, 0)])
    assert g.m == 3
    assert g.multiplicity(0, 1) == 3
    assert g.degree(0) == 3
    assert not g.is_simple()
    assert g.underlying_simple().m == 1


def test_loop_rejected():
    with pytest.raises(LoopEdgeError):
        Multigraph(3, [(0, 0)])


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        Multigraph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        Multigraph(2, [(-1, 0)])


def test_endpoints_and_incident():
    g = cycle_graph(5)
    for e in range(g.m):
        u, v = g.endpoints(e)
        assert e in g.incident[u]
        assert e in g.incident[v]
    assert sorted(len(g.incident[v]) for v in range(5)) == [2] * 5


def test_neighbors_ignore_multiplicity():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    assert g.neighbors(1) == frozenset({0, 2})


def test_connectivity():
    assert cycle_graph(4).is_connected()
    assert not Multigraph(4, [(0, 1), (2, 3)]).is_connected()
    assert not Multigraph(3, [(0, 1)]).is_connected()
    assert Multigraph(1, []).is_connected()


def test_bipartite_and_coloring():
    g = cycle_graph(6)
    assert g.is_bipartite()
    colors = g.two_coloring()
    assert len(colors) == 6 and set(colors) <= {0, 1}
    for e in range(g.m):
        u, v = g.endpoints(e)
        assert colors[u] != colors[v]
    assert not cycle_graph(5).is_bipartite()
    assert not complete_graph(4).is_bipartite()


def test_induced_subgraph():
    g = prism_graph()
    h = g.induced([0, 1, 2])
    assert h.n == 3
    assert h.m == 3  # a triangle face
    assert all(h.degree(v) == 2 for v in range(3))


def test_relabeled_preserves_structure():
    g = star_graph(4)
    perm = (4, 0, 1, 2, 3)
    h = g.relabeled(perm)
    assert h.n == g.n and h.m == g.m
    assert sorted(h.degrees) == sorted(g.degrees)
    assert h.degree(perm[0]) == g.degree(0)


def test_delete_edges():
    g = complete_graph(4)
    h = g.delete_edges([0, 1])
    assert h.n == 4
    assert h.m == g.m - 2


def test_contract_shore():
    g = cycle_graph(6)
    h = g.contract([0, 1, 2])
    assert h.n == 4
    # kept vertices first, contracted shore becomes the last vertex
    assert h.degree(h.n - 1) == 2
    assert h.m == 4


def test_contract_keeps_parallel_boundary():
    # contracting one endpoint of a double edge keeps both copies
    g = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    h = g.contract([0, 3])
    assert h.n == 3
    assert h.multiplicity(0, 2) == 2


def test_path_graph_shape():
    g = path_graph(5)
    assert g.n == 5 and g.m == 4
    assert sorted(g.degrees) == [1, 1, 2, 2, 2]
