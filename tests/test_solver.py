import random

import pytest
from conftest import random_connected_graph, reference_exact

from antipodal.graphs import (Graph, all_pairs_distances, distances, make_cycle,
                              make_gp, make_torus)
from antipodal.radio import (RadioError, minimality_certificate, order_by_color,
                             span, verify_radio_k)
from antipodal.solver import SOLVED, TIMED_OUT, exact_rc_k, greedy_coloring

NEVER_BINDS_S = 1e9  # a time budget far above any run, so only nodes bind


def _solve(graph, k, **kw):
    dist = all_pairs_distances(graph)
    return exact_rc_k(graph, dist, k, **kw), dist


def test_c4_proper_coloring():
    result, dist = _solve(make_cycle(4), 1)
    assert result.status == SOLVED and result.value == 1
    g = make_cycle(4)
    assert verify_radio_k(g, dist, result.witness).valid
    assert span(result.witness) == 1


def test_gp3_antipodal():
    result, dist = _solve(make_gp(3), 1)
    assert result.status == SOLVED and result.value == 2


def test_gp4_antipodal():
    result, dist = _solve(make_gp(4), 2)
    assert result.status == SOLVED and result.value == 6


def test_t33_antipodal_degenerates_to_adjacent_gap():
    result, dist = _solve(make_torus(3, 3), 1)
    assert result.status == SOLVED and result.value == 2


def test_witness_always_verifies():
    for graph, k in [(make_cycle(5), 2), (make_cycle(6), 3), (make_gp(3), 2)]:
        dist = all_pairs_distances(graph)
        result = exact_rc_k(graph, dist, k)
        assert verify_radio_k(graph, dist, result.witness).valid
        assert span(result.witness) == result.value
        if result.status == SOLVED:
            assert result.lower_bound == result.value


def test_monotone_in_k():
    for graph in (make_cycle(5), make_cycle(7), make_torus(3, 3)):
        dist = all_pairs_distances(graph)
        values = [exact_rc_k(graph, dist, k).value
                  for k in range(1, dist.diameter + 1)]
        assert values == sorted(values)


def test_k_out_of_range():
    g = make_cycle(5)
    dist = all_pairs_distances(g)
    with pytest.raises(RadioError):
        exact_rc_k(g, dist, 0)
    with pytest.raises(RadioError):
        exact_rc_k(g, dist, dist.diameter + 1)


def test_shift_invariance_t33():
    # relabeling by a cyclic shift must not change the exact value
    base = make_torus(3, 3)
    dist = all_pairs_distances(base)
    reference = exact_rc_k(base, dist, 1).value
    for a, b in [(1, 0), (0, 1), (2, 2)]:
        perm = {base.index_of[(i, j)]: base.index_of[((i + a) % 3, (j + b) % 3)]
                for i in range(3) for j in range(3)}
        adj = [None] * 9
        for u in range(9):
            adj[perm[u]] = tuple(sorted(perm[v] for v in base.adjacency[u]))
        shifted = Graph(n=9, adjacency=tuple(adj))
        sdist = all_pairs_distances(shifted)
        assert exact_rc_k(shifted, sdist, 1, pin_first=False).value == reference


def test_budget_timeout_reports_bounds():
    g = make_gp(6)
    dist = all_pairs_distances(g)
    result = exact_rc_k(g, dist, dist.diameter - 1, node_budget=2000)
    assert result.status == TIMED_OUT
    assert result.lower_bound <= result.value
    assert verify_radio_k(g, dist, result.witness).valid


def _outcome(result):
    return (result.status, result.value, result.lower_bound,
            result.witness.colors, result.nodes)


def test_library_call_rejects_invalid_budgets():
    # the way a library caller (such as the benchmark's custom graphs)
    # reaches the solver: Graph, BFS distances, exact_rc_k
    graph = random_connected_graph(random.Random(3), 8)
    dist = all_pairs_distances(graph)
    k = max(1, dist.diameter - 1)
    bad = [{"time_budget": float("nan")}, {"time_budget": -1.0},
           {"time_budget": float("inf")}, {"time_budget": -float("inf")},
           {"node_budget": -1}, {"node_budget": float("nan")},
           {"node_budget": float("inf")}]
    for kw in bad:
        name = next(iter(kw))
        with pytest.raises(RadioError, match=f"{name} must be finite and >= 0"):
            exact_rc_k(graph, dist, k, **kw)
    for kw in ({"time_budget": 0}, {"node_budget": 0}, {"node_budget": 10 ** 400}):
        assert exact_rc_k(graph, dist, k, **kw).value >= 0


def test_bit_mask_search_walks_the_reference_tree():
    # same status, value, lower bound, witness and node count as the
    # color-by-color reference, in both branches of every pin and on both
    # sides of the node-count multiples where the budget is read
    rng = random.Random(6)
    cases = []
    for n in (3, 4, 5, 6, 7, 8, 9, 6, 7, 8, 9):
        graph = random_connected_graph(rng, n)
        dist = all_pairs_distances(graph)
        for k in range(1, dist.diameter + 1):
            for pin in (None, True, False):
                for budget in (1, 4095, 4096, 4097, 12289, 10 ** 8):
                    cases.append((graph, dist, k, {"pin_first": pin, "node_budget": budget}))
    families = ([make_cycle(n) for n in range(3, 13)] + [make_gp(n) for n in range(3, 8)]
                + [make_torus(3, 3), make_torus(3, 4), make_torus(4, 4)])
    for graph in families:
        dist = distances(graph)
        for k in range(1, dist.diameter + 1):
            cases.append((graph, dist, k, {"node_budget": 12289}))
    # k = diameter, the widest bands, with the whole tree walked: every pair
    # of positions constrains each other, so no lane of the packed masks
    # stays empty
    for graph in ([make_cycle(n) for n in range(3, 11)] + [make_gp(n) for n in range(3, 6)]
                  + [make_torus(3, 3), make_torus(3, 5)]):
        dist = distances(graph)
        cases.append((graph, dist, dist.diameter, {}))
    timed_out = 0
    for graph, dist, k, kw in cases:
        expected = reference_exact(graph, dist, k, time_budget=NEVER_BINDS_S, **kw)
        got = exact_rc_k(graph, dist, k, time_budget=NEVER_BINDS_S, **kw)
        assert _outcome(got) == _outcome(expected), (graph.n, k, kw)
        timed_out += got.status == TIMED_OUT
    assert timed_out > 0


@pytest.mark.parametrize("graph, budget, expected", [
    (make_torus(4, 4), 10 ** 8, (SOLVED, 15, 3_911_370)),
    (make_gp(8), 2_000_000, (TIMED_OUT, 21, 2_003_027)),
    (make_torus(3, 6), 2_000_000, (TIMED_OUT, 16, 2_003_020)),
], ids=["T(4,4)", "GP(8)", "T(3,6)"])
def test_heavy_benchmark_sizes_walk_a_pinned_tree(graph, budget, expected):
    # the exact-solve benchmark's heaviest searches at k = diameter - 1: a
    # change of search order, pruning or node counting moves these figures
    dist = distances(graph)
    result = exact_rc_k(graph, dist, dist.diameter - 1, node_budget=budget,
                        time_budget=NEVER_BINDS_S)
    assert (result.status, result.value, result.nodes) == expected
    assert verify_radio_k(graph, dist, result.witness).valid


def test_greedy_coloring_is_valid():
    for graph, k in [(make_cycle(6), 2), (make_torus(3, 4), 2)]:
        dist = all_pairs_distances(graph)
        coloring = greedy_coloring(graph, dist, k)
        assert verify_radio_k(graph, dist, coloring).valid


def test_certified_constructions_match_solver():
    # empirical check that the certificate is trustworthy at desk scale
    cases = [(make_cycle(4), (0, 1, 0, 1)), ]
    g, colors = cases[0]
    dist = all_pairs_distances(g)
    from antipodal.radio import Coloring
    ordering = order_by_color(Coloring(colors, k=1), dist)
    assert minimality_certificate(ordering, dist).certified
    assert exact_rc_k(g, dist, 1).value == 1

    from antipodal.gp import gp_construction
    for n in (3, 4):
        graph, dist, ordering, coloring, formula = gp_construction(n)
        assert minimality_certificate(ordering, dist).certified
        result = exact_rc_k(graph, dist, coloring.k)
        assert result.status == SOLVED and result.value == formula.value


def test_relabeled_family_graph_gets_no_construction_seed():
    # T(3,4) with permuted vertex indices that still declares family "torus":
    # the construction's coloring does not fit these indices, so neither it
    # nor the first-vertex pin may be used
    base = make_torus(3, 4)
    rng = random.Random(4)
    for _ in range(3):
        perm = list(range(base.n))
        rng.shuffle(perm)
        adj = [None] * base.n
        for u in range(base.n):
            adj[perm[u]] = tuple(sorted(perm[v] for v in base.adjacency[u]))
        graph = Graph(n=base.n, adjacency=tuple(adj), family="torus",
                      params={"r": 3, "s": 4})
        dist = distances(graph)
        result = exact_rc_k(graph, dist, dist.diameter - 1)
        assert result.status == SOLVED and result.value == 8
        assert verify_radio_k(graph, dist, result.witness).valid
