"""Shared helpers: random connected graphs, valid radio colorings and a
brute-force reference verifier."""

from __future__ import annotations

import random

from antipodal.graphs import Graph


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus a sprinkle of extra edges."""
    edges = set()
    vertices = list(range(n))
    rng.shuffle(vertices)
    for i in range(1, n):
        u = vertices[rng.randrange(i)]
        v = vertices[i]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, adjacency=tuple(tuple(sorted(a)) for a in adj))


def greedy_valid_coloring(graph, dist, k, rng: random.Random):
    """Valid radio k-coloring by first-fit along a random vertex order.

    Colors are shifted so the minimum used color is 0.
    """
    from antipodal.radio import Coloring

    order = list(range(graph.n))
    rng.shuffle(order)
    colors: dict[int, int] = {}
    for v in order:
        c = rng.randrange(3) if rng.random() < 0.5 else 0
        while any(abs(c - cu) < 1 + k - dist.d(v, u) for u, cu in colors.items()):
            c += 1
        colors[v] = c
    low = min(colors.values())
    return Coloring(colors=tuple(colors[v] - low for v in range(graph.n)), k=k)


def reference_verify(graph, dist, coloring):
    """Brute-force radio-condition check over every vertex pair.

    The plain all-pairs loop the library's sorted-by-color verifier must
    agree with, report for report.
    """
    from antipodal.radio import VerificationReport

    k = coloring.k
    colors = coloring.colors
    violations = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            required = 1 + k - dist.d(u, v)
            gap = abs(colors[u] - colors[v])
            if gap < required:
                violations.append((u, v, required, gap))
    return VerificationReport(valid=not violations, violations=tuple(violations))
