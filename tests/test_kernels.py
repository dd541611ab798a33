"""The array kernels against the scalar loops they replaced (``reference_*``
in conftest): graph checks, the family edge-set check, radio violations,
slacks, the slack identity, the certificate, the pattern scan and the
pair-chain colors.  Seeded random inputs, valid and invalid, on both
distance classes."""

import random
import tracemalloc

import numpy as np
import pytest

from antipodal import radio
from antipodal.families import construct
from antipodal.graphs import (CycleProductDistances, Graph, GraphError, all_pairs_distances,
                              distances, family_dims, make_cycle, make_gp, make_torus)
from antipodal.radio import (Coloring, order_by_color, ordering_from_sequence,
                             pattern_certificate, radio_violations, span_identity_residual)
from antipodal.gp import gp_ordering
from antipodal.results import chain_colors, pattern_mismatches

from conftest import (greedy_valid_coloring, random_connected_graph, reference_certificate_failures,
                      reference_chain_colors, reference_epsilons, reference_family_dims,
                      reference_graph_error, reference_pattern_mismatches,
                      reference_radio_violations, reference_residual)


def _cases():
    """(graph, distances) on both classes: closed form and BFS for the
    built-in families, BFS for random custom graphs."""
    rng = random.Random(13)
    built_in = [make_cycle(7), make_gp(5), make_gp(8), make_gp(10),
                make_torus(3, 4), make_torus(4, 4), make_torus(5, 6)]
    cases = []
    for graph in built_in:
        cases.append((graph, distances(graph)))
        cases.append((graph, all_pairs_distances(graph)))
    for n in (2, 3, 6, 9, 12, 15):
        graph = random_connected_graph(rng, n, extra_edge_prob=0.2)
        cases.append((graph, all_pairs_distances(graph)))
    assert {type(dist) for _, dist in cases} == {CycleProductDistances,
                                                 type(all_pairs_distances(make_cycle(3)))}
    return cases


CASES = _cases()


def _colorings(graph, dist, rng):
    """Seeded colorings at random k: valid first-fit ones, random ones
    (mostly invalid), all-equal ones, and the construction where there is one."""
    out = []
    for _ in range(6):
        k = rng.randint(1, dist.diameter)
        out.append(greedy_valid_coloring(graph, dist, k, rng))
        top = rng.choice((1, graph.n, 3 * graph.n * k))
        out.append(Coloring(tuple(rng.randrange(top + 1) for _ in range(graph.n)), k))
    out.append(Coloring((0,) * graph.n, dist.diameter))
    if graph.family in ("gp", "torus"):
        out.append(construct(graph.family, **graph.params).coloring)
    return out


def test_radio_violations_match_reference():
    rng = random.Random(1)
    for graph, dist in CASES:
        for coloring in _colorings(graph, dist, rng):
            expected = reference_radio_violations(coloring.colors, coloring.k, dist)
            assert radio_violations(coloring.colors, coloring.k, dist) == expected


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_radio_violations_match_reference_across_blocks(monkeypatch, block):
    # small blocks put block boundaries inside every vertex's window
    monkeypatch.setattr(radio, "_PAIR_BLOCK", block)
    rng = random.Random(block)
    for graph, dist in CASES[::3]:
        for coloring in _colorings(graph, dist, rng)[:4]:
            expected = reference_radio_violations(coloring.colors, coloring.k, dist)
            assert radio_violations(coloring.colors, coloring.k, dist) == expected


def test_all_zero_coloring_spans_many_blocks():
    graph = make_torus(30, 30)
    dist = distances(graph)
    k = dist.diameter - 1
    colors = (0,) * graph.n
    pairs = graph.n * (graph.n - 1) // 2
    assert pairs > 6 * radio._PAIR_BLOCK
    got = radio_violations(colors, k, dist)
    assert got == reference_radio_violations(colors, k, all_pairs_distances(graph))
    # every pair but the n / 2 antipodal ones needs a gap of at least 1
    assert len(got) == pairs - graph.n // 2


def test_radio_violations_temporary_memory_is_bounded():
    # 2000 equal colors make 1,999,000 candidate pairs (31 blocks); distances
    # that never bind leave no violations, so the peak is the blocks' arrays
    class FarApart:
        diameter = 30

        def dists(self, us, vs):
            return np.full(len(us), self.diameter)

    tracemalloc.start()
    try:
        assert radio_violations((0,) * 2000, 29, FarApart()) == ()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak  # in one block it takes about 120 MB


def test_radio_violations_with_colors_beyond_64_bits():
    graph = make_gp(6)
    dist = distances(graph)
    big = 2 ** 70
    rng = random.Random(5)
    for _ in range(20):
        colors = tuple(big + rng.randrange(8) if rng.random() < 0.5 else rng.randrange(8)
                       for _ in range(graph.n))
        for k in (1, dist.diameter, big):
            assert radio_violations(colors, k, dist) == reference_radio_violations(colors, k, dist)
    assert radio_violations((0, 0), -3, dist) == reference_radio_violations((0, 0), -3, dist) == ()


def test_slacks_residual_and_certificate_match_reference():
    rng = random.Random(2)
    checked = 0
    for graph, dist in CASES:
        for coloring in _colorings(graph, dist, rng):
            orderings = [order_by_color(coloring, dist)]
            shuffled = list(orderings[0].order)
            rng.shuffle(shuffled)
            shuffled.sort(key=lambda v: coloring.colors[v])  # other equal-color ties
            orderings.append(ordering_from_sequence(coloring, dist, shuffled))
            for ordering in orderings:
                assert ordering.epsilons == reference_epsilons(
                    ordering.order, coloring.colors, coloring.k, dist)
                assert span_identity_residual(ordering, dist) == reference_residual(ordering, dist)
                if coloring.k == dist.diameter - 1:
                    cert = pattern_certificate(ordering, dist)
                    assert cert.failures == reference_certificate_failures(ordering, dist)
                    checked += 1
    assert checked > 20


def test_certificate_of_constructions_matches_reference():
    for family, params in [("gp", {"n": n}) for n in (4, 5, 10, 18)] + [
            ("torus", {"r": r, "s": s}) for r, s in ((4, 4), (3, 8), (3, 12), (6, 10))]:
        _, dist, ordering, coloring, _ = construct(family, **params)
        for d in (dist, all_pairs_distances(make_gp(params["n"]) if family == "gp"
                                            else make_torus(params["r"], params["s"]))):
            cert = pattern_certificate(ordering, d)
            assert cert.failures == reference_certificate_failures(ordering, d)
            assert span_identity_residual(ordering, d) == reference_residual(ordering, d)


def test_pattern_scan_matches_reference():
    rng = random.Random(3)

    def table():
        entries = (None,) + tuple(range(5)) + tuple(("ge", bound) for bound in range(5))
        return tuple(rng.choice(entries) for _ in range(rng.choice((1, 2, 3, 4, 5, 10))))

    for graph, dist in CASES:
        for trial in range(4):
            order = list(range(graph.n))
            rng.shuffle(order)
            tables = tuple(table() for _ in range(3))
            clauses = tuple((lambda j, t=t: t[j % len(t)]) for t in tables)
            got = pattern_mismatches(order, dist.dists, tables)
            assert got == reference_pattern_mismatches(order, dist.d, clauses)


def test_chain_colors_match_reference():
    rng = random.Random(4)
    for r, s in ((4, 4), (3, 8), (5, 6), (6, 10)):
        dist = distances(make_torus(r, s))
        for _ in range(5):
            order = list(range(r * s))
            rng.shuffle(order)
            deltas = rng.choice((None, [rng.randrange(3) for _ in range(r * s // 2)]))
            assert chain_colors(order, deltas, dist) == reference_chain_colors(
                order, deltas, dist)
    # GP's construction orderings, every residue class, on both distance classes
    for n in range(3, 27):
        graph = make_gp(n)
        order = gp_ordering(n)
        for dist in (distances(graph), all_pairs_distances(graph)):
            assert chain_colors(order, None, dist) == reference_chain_colors(
                order, None, dist), n


def _mutations(graph, rng):
    """Malformed and well-formed variants of ``graph``'s adjacency, with labels."""
    n = graph.n
    rows = [list(row) for row in graph.adjacency]
    u = rng.randrange(n)
    out = [(n, rows, None)]
    dup = [list(row) for row in rows]
    dup[u].insert(rng.randrange(len(dup[u]) + 1), rng.choice(dup[u]))
    out.append((n, dup, None))
    loop = [list(row) for row in rows]
    loop[u].insert(rng.randrange(len(loop[u]) + 1), u)
    out.append((n, loop, None))
    for bad in (n, n + 3, -1):
        far = [list(row) for row in rows]
        far[u].insert(rng.randrange(len(far[u]) + 1), bad)
        out.append((n, far, None))
    one_way = [list(row) for row in rows]
    one_way[u].pop(rng.randrange(len(one_way[u])))
    out.append((n, one_way, None))
    extra = [list(row) for row in rows]
    w = rng.choice([w for w in range(n) if w != u and w not in extra[u]] or [u])
    if w != u:
        extra[u].append(w)
        out.append((n, extra, None))
    shuffled = [rng.sample(row, len(row)) for row in rows]
    out.append((n, shuffled, None))
    several = [list(row) for row in rows]  # faults in two rows, first one wins
    a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
    several[b].append(b)
    several[a].append(n + 1)
    out.append((n, several, None))
    cut = [list(row) for row in rows]  # isolate vertex u
    for w in cut[u]:
        cut[w].remove(u)
    cut[u] = []
    out.append((n, cut, None))
    labels = {("v", i): i for i in range(n)}
    out.append((n, rows, labels))
    out.append((n, rows, {("v", i): i // 2 for i in range(n)}))
    out.append((n, rows, {("v", i): i + 1 for i in range(n)}))
    out.append((n + 1, rows, None))
    return [(m, tuple(map(tuple, adj)), lab) for m, adj, lab in out]


def test_graph_checks_match_reference():
    rng = random.Random(6)
    graphs = [make_cycle(5), make_gp(4), make_torus(3, 4)]
    graphs += [random_connected_graph(rng, n) for n in (2, 3, 5, 8, 11)]
    seen = set()
    for graph in graphs:
        for _ in range(8):
            for n, adjacency, labels in _mutations(graph, rng):
                expected = reference_graph_error(n, adjacency, labels)
                seen.add(expected.split(" ")[0] if expected else None)
                if expected is None:
                    Graph(n=n, adjacency=adjacency, labels=labels)
                    continue
                with pytest.raises(GraphError) as info:
                    Graph(n=n, adjacency=adjacency, labels=labels)
                assert str(info.value) == expected
    assert seen == {None, "adjacency", "duplicate", "self-loop", "neighbor", "asymmetric",
                    "labels", "graph"}


def test_family_check_matches_reference():
    gp4 = make_gp(4).adjacency
    order = [0, 2, 4, 6, 1, 3, 5, 7]
    adj = [[] for _ in range(8)]
    for a, b in zip(order, order[1:] + order[:1]):
        adj[a].append(b)
        adj[b].append(a)
    c8_shuffled = tuple(tuple(sorted(row)) for row in adj)
    graphs = [make_cycle(n) for n in range(3, 9)] + [make_gp(n) for n in range(3, 9)]
    graphs += [make_torus(r, s) for r in range(3, 7) for s in range(3, 7)]
    graphs += [Graph(n=8, adjacency=gp4, family="cycle", params={"n": 8}),
               Graph(n=8, adjacency=c8_shuffled, family="cycle", params={"n": 8}),
               Graph(n=8, adjacency=gp4, family="torus", params={"r": 2, "s": 4}),
               Graph(n=8, adjacency=gp4, family="gp", params={"n": "4"}),
               Graph(n=2, adjacency=((1,), (0,)), family="cycle", params={"n": 2}),
               Graph(n=8, adjacency=tuple(tuple(reversed(row)) for row in gp4),
                     family="gp", params={"n": 4})]
    for graph in graphs:
        assert family_dims(graph) == reference_family_dims(graph), (graph.family, graph.params)
    assert family_dims(graphs[-1]) == (2, 4)


def test_dists_equal_d_on_every_pair():
    for graph, dist in CASES:
        us, vs = np.divmod(np.arange(graph.n * graph.n), graph.n)
        assert dist.dists(us, vs).tolist() == [dist.d(u, v) for u, v in zip(us.tolist(),
                                                                          vs.tolist())]
