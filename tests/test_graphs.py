import random
import tracemalloc

import numpy as np
import pytest

from antipodal import graphs
from antipodal.graphs import (CycleProductDistances, Graph, GraphError, all_pairs_distances,
                              closed_form_diameter, cyclic_distance, distances, family_dims,
                              make_cartesian_product, make_cycle, make_gp, make_torus,
                              product_reflections)

from conftest import (random_connected_graph, reference_cartesian_product, reference_cycle,
                      reference_gp, reference_reflections, reference_torus)


def test_cycle_smallest_is_triangle():
    g = make_cycle(3)
    assert g.n == 3
    assert all(g.degree(v) == 2 for v in range(3))


def test_cycle_eight_has_eight_edges():
    g = make_cycle(8)
    assert g.edge_count == 8
    assert all(g.degree(v) == 2 for v in range(8))


def test_cycle_five_diameter_two():
    assert all_pairs_distances(make_cycle(5)).diameter == 2


def test_cycle_rejects_small():
    with pytest.raises(GraphError):
        make_cycle(2)


def test_gp_examples():
    g8 = make_gp(8)
    assert (g8.n, g8.edge_count) == (16, 24)
    assert all_pairs_distances(g8).diameter == 5
    assert all_pairs_distances(make_gp(5)).diameter == 3
    g3 = make_gp(3)
    assert g3.n == 6
    assert all_pairs_distances(g3).diameter == 2
    assert all(g8.degree(v) == 3 for v in range(16))
    with pytest.raises(GraphError):
        make_gp(2)


def test_torus_examples():
    t44 = make_torus(4, 4)
    assert t44.n == 16
    assert all_pairs_distances(t44).diameter == 4
    assert all(t44.degree(v) == 4 for v in range(16))
    assert all_pairs_distances(make_torus(3, 4)).diameter == 3
    assert all_pairs_distances(make_torus(3, 3)).diameter == 2
    with pytest.raises(GraphError):
        make_torus(2, 5)


def _k2():
    return Graph(n=2, adjacency=((1,), (0,)), labels={0: 0, 1: 1})


def test_product_of_k2_and_c8_is_gp8():
    prod = make_cartesian_product(_k2(), make_cycle(8))
    gp = make_gp(8)
    # map product label (layer, i) onto ("x"/"y", i)
    def to_gp_index(label):
        layer, i = label
        return gp.index_of[("x" if layer == 0 else "y", i)]
    mapped = set()
    for u, v in prod.edges():
        lu, lv = prod.label_of(u), prod.label_of(v)
        a, b = to_gp_index(lu), to_gp_index(lv)
        mapped.add((min(a, b), max(a, b)))
    assert mapped == set(gp.edges())


def test_product_c3_c3_degree_sum():
    prod = make_cartesian_product(make_cycle(3), make_cycle(3))
    assert prod.n == 9
    assert prod.edge_count == 18
    assert all(prod.degree(v) == 4 for v in range(9))


def test_product_c4_c4_diameter():
    prod = make_cartesian_product(make_cycle(4), make_cycle(4))
    assert all_pairs_distances(prod).diameter == 4


def test_all_pairs_examples():
    c5 = all_pairs_distances(make_cycle(5))
    assert c5.d(0, 3) == 2
    assert int(all_pairs_distances(make_gp(8)).dist.max()) == 5
    t44 = make_torus(4, 4)
    d = all_pairs_distances(t44)
    assert d.d(t44.index_of[(0, 0)], t44.index_of[(2, 2)]) == 4


def test_distance_matrix_invariants():
    for g in (make_cycle(7), make_gp(6), make_torus(3, 5)):
        dm = all_pairs_distances(g)
        d = dm.dist
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        n = g.n
        off = d[~np.eye(n, dtype=bool)]
        assert off.min() >= 1 and off.max() == dm.diameter
        for u in range(n):  # triangle inequality: d[u,w] + d[w,v] >= d[u,v]
            assert (d[u][:, None] + d >= d[u][None, :]).all()


def _assert_same_distances(graph, bfs=None):
    got = distances(graph)
    bfs = all_pairs_distances(graph) if bfs is None else bfs
    assert got.n == bfs.n == graph.n
    us, vs = np.divmod(np.arange(graph.n * graph.n), graph.n)
    assert (got.dists(us, vs).reshape(graph.n, graph.n) == bfs.dist).all()
    rows = bfs.dist.tolist()
    assert all(got.d(0, v) == rows[0][v] and got.d(v, 0) == rows[v][0] for v in range(graph.n))
    assert got.diameter == bfs.diameter


def test_closed_form_distances_equal_bfs(monkeypatch):
    built_in = [make_cycle(n) for n in range(3, 61)] + [make_gp(n) for n in range(3, 61)]
    built_in += [make_torus(r, s) for r in range(3, 16) for s in range(3, 16)]
    references = [all_pairs_distances(g) for g in built_in]

    def no_bfs(graph):
        raise AssertionError(f"{graph.family} {graph.params} fell back to BFS")

    monkeypatch.setattr(graphs, "all_pairs_distances", no_bfs)
    for graph, bfs in zip(built_in, references):
        _assert_same_distances(graph, bfs)


def test_closed_form_distances_build_no_square_array():
    # an int32 V x V matrix of either graph would take 381 MB
    for graph in (make_torus(100, 100), make_gp(5000)):
        tracemalloc.start()
        try:
            dist = distances(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(dist, CycleProductDistances)
        assert peak < 16 * 2 ** 20, (graph.family, graph.params, peak)


def test_builders_match_edge_set_references():
    cases = [(make_cycle(n), reference_cycle(n)) for n in range(3, 61)]
    cases += [(make_gp(n), reference_gp(n)) for n in range(3, 61)]
    cases += [(make_torus(r, s), reference_torus(r, s))
              for r in range(3, 16) for s in range(3, 16)]
    n_built_in = len(cases)
    factors = [_k2(), make_cycle(3), make_cycle(4), make_gp(3),
               random_connected_graph(random.Random(1), 5)]
    cases += [(make_cartesian_product(g, h), reference_cartesian_product(g, h))
              for g in factors for h in factors]
    for graph, (adjacency, labels) in cases:
        assert graph.adjacency == adjacency, (graph.family, graph.params)
        assert list(graph.labels.items()) == list(labels.items()), (graph.family, graph.params)
    # the builders skip Graph's checks; the checking constructor (simple,
    # symmetric, bijective labels, connected) must accept every graph they
    # make, and see the same edge count and cycle product in its edge set
    for graph, _ in cases[:n_built_in]:
        checked = Graph(n=graph.n, adjacency=graph.adjacency, labels=graph.labels,
                        family=graph.family, params=graph.params)
        assert checked.edge_count == graph.edge_count, (graph.family, graph.params)
        assert np.array_equal(checked._pair_keys, graph._pair_keys), (graph.family, graph.params)
        assert graphs.family_dims(checked) == graphs.family_dims(graph) is not None, \
            (graph.family, graph.params)


def test_product_reflections_are_the_label_reflections():
    # the index-grid automorphisms fixing vertex 0 are the label reflections
    # (with the swap on square tori), and each one maps the edge set onto itself
    cases = ([make_cycle(n) for n in range(3, 13)] + [make_gp(n) for n in range(3, 13)]
             + [make_torus(r, s) for r in range(3, 9) for s in range(3, 9)])
    for graph in cases:
        sigmas = product_reflections(family_dims(graph))
        assert sigmas == reference_reflections(graph)
        square = graph.family == "torus" and graph.params["r"] == graph.params["s"]
        assert len(sigmas) == (7 if square else 3 if graph.family == "torus" else 1)
        edges = set(graph.edges())
        for sigma in sigmas:
            assert sigma[0] == 0
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in edges} == edges


def test_distances_fall_back_to_bfs_when_family_does_not_match():
    gp4 = make_gp(4).adjacency
    # right vertex count, wrong edge count (the closed form would give 4 here)
    mislabeled = Graph(n=8, adjacency=gp4, family="cycle", params={"n": 8})
    _assert_same_distances(mislabeled)
    assert distances(mislabeled).d(0, 4) == 1
    # right vertex and edge counts, but the edges are not the family's
    order = [0, 2, 4, 6, 1, 3, 5, 7]  # the 8-cycle visited in another order
    adj = [[] for _ in range(8)]
    for a, b in zip(order, order[1:] + order[:1]):
        adj[a].append(b)
        adj[b].append(a)
    shuffled = Graph(n=8, adjacency=tuple(tuple(sorted(row)) for row in adj),
                     family="cycle", params={"n": 8})
    _assert_same_distances(shuffled)
    assert distances(shuffled).d(0, 1) == 4
    # parameters that name no product of cycles
    for family, params in [("torus", {}), ("gp", {"n": "4"}), ("product", {})]:
        _assert_same_distances(Graph(n=8, adjacency=gp4, family=family, params=params))


def test_disconnected_graph_rejected():
    with pytest.raises(GraphError):
        Graph(n=4, adjacency=((1,), (0,), (3,), (2,)))


def test_graph_rejects_self_loop_and_asymmetry():
    with pytest.raises(GraphError):
        Graph(n=2, adjacency=((0, 1), (0,)))
    with pytest.raises(GraphError):
        Graph(n=3, adjacency=((1,), (0, 2), ()))


def test_closed_form_diameter():
    assert closed_form_diameter("gp", {"n": 8}) == 5
    assert closed_form_diameter("torus", {"r": 5, "s": 4}) == 4
    assert closed_form_diameter("gp", {"n": 3}) == 2
    with pytest.raises(GraphError):
        closed_form_diameter("gp", {"n": 1})


def test_cyclic_distance_basics():
    assert cyclic_distance(10, 2, 9) == 3
    assert cyclic_distance(4, 0, 2) == 2
    assert cyclic_distance(4, 3, 0) == 1


def test_labels_are_bijective():
    g = make_torus(3, 4)
    assert sorted(g.index_of.values()) == list(range(12))
    assert g.label_of(g.index_of[(2, 3)]) == (2, 3)


def _rejection(n, adjacency, labels=None):
    with pytest.raises(GraphError) as info:
        Graph(n=n, adjacency=adjacency, labels=labels)
    return str(info.value)


def test_graph_rejects_size_mismatch():
    assert _rejection(3, ((1,), (0,))) == "adjacency size does not match vertex count"
    assert _rejection(0, ()) == "adjacency size does not match vertex count"


def test_graph_rejects_duplicate_neighbor():
    triangle = ((1, 2), (0, 2, 2), (0, 1))
    assert _rejection(3, triangle) == "duplicate neighbors at vertex 1"
    assert _rejection(3, ((1, 2, 1), (0, 2), (0, 1))) == "duplicate neighbors at vertex 0"


def test_graph_rejects_out_of_range_neighbor():
    assert _rejection(3, ((1,), (0, 5), ())) == "neighbor 5 out of range"
    assert _rejection(3, ((1, -1), (0,), ())) == "neighbor -1 out of range"
    assert _rejection(2, ((1, 2 ** 70), (0,))) == f"neighbor {2 ** 70} out of range"


def test_graph_rejects_labels_that_are_not_a_bijection():
    path = ((1,), (0, 2), (1,))
    message = "labels are not a bijection onto 0..n-1"
    assert _rejection(3, path, {"a": 0, "b": 1, "c": 1}) == message
    assert _rejection(3, path, {"a": 0, "b": 1}) == message
    assert _rejection(3, path, {"a": 0, "b": 1, "c": 3}) == message
    assert _rejection(3, path, {"a": 0, "b": 1, "c": 2, "d": 3}) == message
    assert Graph(n=3, adjacency=path, labels={"a": 2, "b": 0, "c": 1}).label_of(0) == "b"


def test_graph_rejection_names_the_first_offending_vertex():
    # the rows are checked in vertex order; within a row, duplicates first,
    # then self-loops and out-of-range neighbours in row order
    assert _rejection(4, ((1,), (0, 9), (3, 3), (2,))) == "neighbor 9 out of range"
    assert _rejection(4, ((1,), (0, 1), (3, 3), (2,))) == "self-loop at vertex 1"
    assert _rejection(4, ((1,), (0,), (3, 3, 2), (9,))) == "duplicate neighbors at vertex 2"
    assert _rejection(3, ((1,), (7, 1, 0), ())) == "neighbor 7 out of range"
    assert _rejection(3, ((1,), (1, 7, 0), ())) == "self-loop at vertex 1"
    assert _rejection(3, ((1,), (7, 7, 1), ())) == "duplicate neighbors at vertex 1"


def test_asymmetric_edge_message_names_the_first_bad_pair():
    # (0, 2), (1, 3) and (3, 2) have no reverse; (0, 2) is the first
    assert _rejection(4, ((1, 2), (0, 3), (), (2,))) == "asymmetric edge (0, 2)"
    # (2, 1) and (3, 2) have no reverse
    assert _rejection(4, ((1,), (0, 3), (1,), (1, 2))) == "asymmetric edge (2, 1)"
