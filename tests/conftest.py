"""Shared helpers: random connected graphs, valid radio colorings, a
brute-force reference verifier, a reference exact solver, and the scalar
loops that the library's array kernels must agree with (``reference_*``)."""

from __future__ import annotations

import random
import time
from math import gcd

import numpy as np

from antipodal.gp import (_STEP, CASE_4T, CASE_4T1, CASE_4T2_EVEN, CASE_4T2_ODD, CASE_4T3,
                          gp_case, gp_ordering)
from antipodal.graphs import Graph
from antipodal.results import ConstructionError, TorusError
from antipodal.torus import L00, L10, L12, L20, L22H, L22M, L30, L32, LODD


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


def reference_exact(graph, dist, k, node_budget=10 ** 8, time_budget=60.0):
    """The exact solver's depth-first search as a plain per-color loop.

    Tries every color of every position against every earlier vertex.  On a
    built-in family graph it also rejects a color below that of position j
    at the position of sigma(v_j), for each of ``reference_reflections`` and
    the first position j it moves.  The library's bit-mask search must walk
    the same tree: the same status, value, lower bound, witness and node
    count.
    """
    from antipodal.graphs import family_dims
    from antipodal.radio import Coloring, RadioError, span
    from antipodal.solver import (SOLVED, TIMED_OUT, ExactResult,
                                  _construction_seed, greedy_coloring)

    n = graph.n
    if not 1 <= k <= dist.diameter:
        raise RadioError("k out of range 1..diameter")
    is_family = family_dims(graph) is not None
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))

    seed = _construction_seed(graph, dist, k) if is_family else None
    if seed is None:
        seed = greedy_coloring(graph, dist, k)
    incumbent = span(seed)
    witness = seed

    # per-vertex constraint rows: (earlier vertex position, required gap)
    pos_of = {v: i for i, v in enumerate(order)}
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, v in enumerate(order):
        for u in range(n):
            if u == v or pos_of[u] > i:
                continue
            required = 1 + k - dist.d(u, v)
            if required > 0:
                constraints[i].append((pos_of[u], required))
    # floors[p]: the earlier positions whose colors position p may not go below
    floors: list[list[int]] = [[] for _ in range(n)]
    for sigma in (reference_reflections(graph) if is_family else ()):
        j = next(i for i, v in enumerate(order) if sigma[v] != v)
        floors[pos_of[sigma[order[j]]]].append(j)

    assigned = [0] * n
    nodes = 0
    start = time.monotonic()
    timed_out = False

    def feasible(i: int, c: int) -> bool:
        if any(c < assigned[j] for j in floors[i]):
            return False
        for j, required in constraints[i]:
            if abs(c - assigned[j]) < required:
                return False
        return True

    def dfs(i: int, current_max: int) -> None:
        nonlocal incumbent, witness, nodes, timed_out
        if timed_out:
            return
        if i == n:
            if current_max < incumbent:
                incumbent = current_max
                out = [0] * n
                for pos, v in enumerate(order):
                    out[v] = assigned[pos]
                witness = Coloring(colors=tuple(out), k=k)
            return
        top = incumbent  # colors >= incumbent cannot improve
        if i == 0 and is_family:
            top = 1
        for c in range(top):
            nodes += 1
            if nodes % 4096 == 0 and (nodes > node_budget or
                                      time.monotonic() - start > time_budget):
                timed_out = True
                return
            if max(current_max, c) >= incumbent:
                break
            if feasible(i, c):
                assigned[i] = c
                dfs(i + 1, max(current_max, c))
        return

    dfs(0, 0)
    elapsed = time.monotonic() - start
    if timed_out:
        lower = max(0, (n - 1) * (k + 1 - dist.diameter), min(k, incumbent))
        return ExactResult(TIMED_OUT, incumbent, lower, witness, nodes, elapsed)
    return ExactResult(SOLVED, incumbent, incumbent, witness, nodes, elapsed)


def reference_reflections(graph):
    """The automorphisms of a built-in family graph that fix vertex 0, other
    than the identity, read off its labels: negate any set of the label's
    cycle coordinates mod the cycle's length, then swap the two coordinates
    of a square torus or not.  Each is a tuple with ``sigma[v]`` the image
    of v."""
    from itertools import product

    params = graph.params
    if graph.family == "cycle":
        moves = [lambda i, f=f: -i % params["n"] if f else i for f in (0, 1)]
    elif graph.family == "gp":
        moves = [lambda lab, f=f: (lab[0], -lab[1] % params["n"] if f else lab[1])
                 for f in (0, 1)]
    else:
        r, s = params["r"], params["s"]
        moves = [lambda lab, a=a, b=b: (-lab[0] % r if a else lab[0], -lab[1] % s if b else lab[1])
                 for a, b in product((0, 1), repeat=2)]
        if r == s:
            moves += [lambda lab, m=m: m(lab)[::-1] for m in moves]
    images = {tuple(graph.index_of[move(graph.label_of(v))] for v in range(graph.n))
              for move in moves}
    images.discard(tuple(range(graph.n)))
    return sorted(images)


def reference_triameter(r, s):
    """Max of d(u,v) + d(v,w) + d(w,u) over all vertex triples of T(r,s),
    by exhaustive enumeration on BFS distances."""
    from antipodal.graphs import all_pairs_distances, make_torus

    return reference_matrix_triameter(all_pairs_distances(make_torus(r, s)).dist)


def reference_matrix_triameter(dist):
    """Max of d(u,v) + d(v,w) + d(w,u) over all vertex triples of a distance
    matrix, by exhaustive enumeration."""
    best = 0
    for w in range(len(dist)):
        total = dist[:, [w]] + dist[[w], :] + dist
        best = max(best, int(total.max()))
    return best


def _from_edge_set(n, edge_set, labels):
    adj = [[] for _ in range(n)]
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(row)) for row in adj), labels


def reference_cycle(n):
    """Adjacency and labels of C_n, built from its edge set."""
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return _from_edge_set(n, edges, {i: i for i in range(n)})


def reference_gp(n):
    """Adjacency and labels of GP(n,1), built from its edge set."""
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        edges.add((min(i, j), max(i, j)))                  # outer cycle
        edges.add((min(n + i, n + j), max(n + i, n + j)))  # inner cycle
        edges.add((i, n + i))                              # spoke
    labels = {("x", i): i for i in range(n)}
    labels.update({("y", i): n + i for i in range(n)})
    return _from_edge_set(2 * n, edges, labels)


def reference_torus(r, s):
    """Adjacency and labels of T(r,s), built from its edge set."""
    def idx(i, j):
        return (i % r) * s + (j % s)
    edges = set()
    for i in range(r):
        for j in range(s):
            u = idx(i, j)
            for v in (idx(i + 1, j), idx(i, j + 1)):
                edges.add((min(u, v), max(u, v)))
    labels = {(i, j): idx(i, j) for i in range(r) for j in range(s)}
    return _from_edge_set(r * s, edges, labels)


def reference_cartesian_product(g, h):
    """Adjacency and labels of g x h, built from its edge set."""
    def idx(a, b):
        return a * h.n + b
    edges = set()
    for a in range(g.n):
        for b in range(h.n):
            u = idx(a, b)
            for v in [idx(a2, b) for a2 in g.adjacency[a]] + [idx(a, b2) for b2 in h.adjacency[b]]:
                edges.add((min(u, v), max(u, v)))
    labels = {(g.label_of(a), h.label_of(b)): idx(a, b)
              for a in range(g.n) for b in range(h.n)}
    return _from_edge_set(g.n * h.n, edges, labels)


def reference_graph_error(n, adjacency, labels=None):
    """The message ``Graph`` must raise for this input, or None, from a set
    of every directed pair and a breadth-first search.

    Rows are checked in vertex order: duplicates, then self-loops and
    out-of-range neighbours in row order.  Then symmetry (the
    lexicographically first pair without its reverse), the labels and
    connectivity.
    """
    from collections import deque

    if n < 1 or len(adjacency) != n:
        return "adjacency size does not match vertex count"
    seen_pairs = set()
    for u, row in enumerate(adjacency):
        if len(set(row)) != len(row):
            return f"duplicate neighbors at vertex {u}"
        for v in row:
            if v == u:
                return f"self-loop at vertex {u}"
            if not 0 <= v < n:
                return f"neighbor {v} out of range"
            seen_pairs.add((u, v))
    asymmetric = [(u, v) for u, v in seen_pairs if (v, u) not in seen_pairs]
    if asymmetric:
        return "asymmetric edge ({}, {})".format(*min(asymmetric))
    if labels is not None and sorted(labels.values()) != list(range(n)):
        return "labels are not a bijection onto 0..n-1"
    seen = {0}
    queue = deque([0])
    while queue:
        for v in adjacency[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return None if len(seen) == n else "graph is not connected"


def reference_family_dims(graph):
    """``family_dims`` by hop counts: the declared product's size and edge
    count, and every edge joining vertices one cycle step apart."""
    from math import prod

    from antipodal.graphs import cyclic_distance, family_cycles

    dims = family_cycles(graph.family, graph.params)
    if dims is None:
        return None
    degree = sum(1 if m == 2 else 2 for m in dims)
    if prod(dims) != graph.n or graph.edge_count != graph.n * degree // 2:
        return None
    for u, v in graph.edges():
        cu, cv = [], []
        for m in reversed(dims):
            cu.append(u % m)
            cv.append(v % m)
            u, v = u // m, v // m
        hops = sum(cyclic_distance(m, a, b) for m, a, b in zip(reversed(dims), cu, cv))
        if hops != 1:
            return None
    return dims


def reference_radio_violations(colors, k, dist):
    """The radio condition's violations by a scalar walk in color order,
    from each vertex over the later ones until the gap reaches k + 1."""
    n = len(colors)
    violations = []
    by_color = sorted(range(n), key=lambda v: colors[v])
    for a in range(n):
        u = by_color[a]
        for b in range(a + 1, n):
            v = by_color[b]
            gap = colors[v] - colors[u]
            if gap >= k + 1:
                break  # later vertices only have larger gaps
            required = 1 + k - dist.d(u, v)
            if gap < required:
                violations.append((min(u, v), max(u, v), required, gap))
    violations.sort()
    return tuple(violations)


def reference_epsilons(order, colors, k, dist):
    """eps_j for j = 2..n along ``order``, one pair at a time."""
    return tuple(colors[v] - colors[u] - (1 + k - dist.d(u, v))
                 for u, v in zip(order, order[1:]))


def reference_residual(ordering, dist):
    """``span_identity_residual`` at the ordering's own k, by a scalar sum."""
    n, k = ordering.n, ordering.k
    dsum = sum(dist.d(ordering.order[j - 1], ordering.order[j]) for j in range(1, n))
    return max(ordering.colors) - ((n - 1) * (k + 1) - dsum + sum(ordering.epsilons))


def reference_certificate_failures(ordering, dist):
    """``pattern_certificate`` failures, position by position."""
    from antipodal.radio import (CLAUSE_DIAMETRAL, CLAUSE_FINAL_PAIR,
                                 CLAUSE_FINAL_SLACK, CLAUSE_TWO_STEP)

    diam, n, order = dist.diameter, ordering.n, ordering.order

    def d_at(j1, j2):
        return dist.d(order[j1 - 1], order[j2 - 1])

    failures = []
    top = n - 3 if n % 2 == 0 else n - 2
    for j in range(1, top + 1, 2):
        observed = d_at(j, j + 1)
        if observed != diam:
            failures.append((j, CLAUSE_DIAMETRAL, observed, diam))
        lhs = d_at(j + 1, j + 2)
        rhs = d_at(j, j + 2) + ordering.eps(j + 1) + ordering.eps(j + 2)
        if lhs != rhs:
            failures.append((j, CLAUSE_TWO_STEP, lhs, rhs))
    if n % 2 == 0 and n >= 2:
        observed = d_at(n - 1, n)
        if observed != diam:
            failures.append((n - 1, CLAUSE_FINAL_PAIR, observed, diam))
        if ordering.eps(n) != 0:
            failures.append((n, CLAUSE_FINAL_SLACK, ordering.eps(n), 0))
    return tuple(failures)


def reference_pattern_mismatches(order, d, checks):
    """``pattern_mismatches`` with a scalar distance ``d(u, v)``."""
    kinds = ("consecutive-distance", "two-step-distance", "three-step-distance")
    mismatches = []
    for back, (kind, clause) in enumerate(zip(kinds, checks), start=1):
        for j in range(back + 1, len(order) + 1):
            expected = clause(j)
            if expected is None:
                continue
            observed = d(order[j - 1], order[j - 1 - back])
            if isinstance(expected, tuple):
                if observed < expected[1]:
                    mismatches.append((kind, j, f">={expected[1]}", observed))
            elif observed != expected:
                mismatches.append((kind, j, expected, observed))
    return mismatches


def reference_chain_colors(order, deltas, dist):
    """Pair-chain colors, pair by pair: the next anchor's color grows
    by diam - d(A_m, A_{m+1}), a partner's adds its pair's delta."""
    colors = [0] * len(order)
    g = 0
    for m in range(0, len(order), 2):
        if m:
            g += dist.diameter - dist.d(order[m - 2], order[m])
        colors[order[m]] = g
        colors[order[m + 1]] = g + (deltas[m // 2] if deltas else 0)
    return tuple(colors)


def reference_derived_chain_colors(order, dist):
    """Pair-chain colors from the ordering alone, pair by pair from the
    back.  Anchors telescope as in ``reference_chain_colors``.  ``latest``
    is partner B_m's latest color: at least diam - d apart from the next
    anchor and from B_{m+1}'s latest color, B_M's being its anchor's.
    B_m takes it, or its anchor's color when that is later."""
    anchors, partners = order[0::2], order[1::2]
    g = [0]
    for a, b in zip(anchors, anchors[1:]):
        g.append(g[-1] + dist.diameter - dist.d(a, b))
    colors = [0] * len(order)
    latest = g[-1]
    for m in reversed(range(len(anchors))):
        if m + 1 < len(anchors):
            latest = min(g[m + 1] - dist.diameter + dist.d(partners[m], anchors[m + 1]),
                         latest - dist.diameter + dist.d(partners[m], partners[m + 1]))
        colors[anchors[m]] = g[m]
        colors[partners[m]] = max(g[m], latest)
    return tuple(colors)


# Color increment applied on each even -> odd step, by case: the published
# constant-increment rule, kept as the reference for the pair chain.
_INCREMENT = {
    CASE_4T: lambda n: n // 4 + 1,
    CASE_4T1: lambda n: (n + 3) // 4,
    CASE_4T2_ODD: lambda n: (n + 6) // 4,
    CASE_4T2_EVEN: lambda n: (n + 6) // 4,
    CASE_4T3: lambda n: (n + 1) // 4,
}


def reference_gp_colors(n):
    """Colors by vertex of GP(n,1) under the published rule: the j-th pair of
    ``gp_ordering(n)`` (0-based) gets j times its case's increment.  Valid
    for every n; equal to the pair chain except at n = 2 (mod 8), where its
    span is the published (n^2 + 5n - 6)/4."""
    inc = _INCREMENT[gp_case(n).label](n)
    colors = [0] * (2 * n)
    for position, v in enumerate(gp_ordering(n)):
        colors[v] = position // 2 * inc
    return tuple(colors)


def reference_gp_ordering(n):
    """GP(n,1)'s construction ordering from per-position subscripts, the
    reference that ``gp_ordering``'s ``pair_chain`` parameters must
    reproduce: the j-th pair is ("x", xs) with ("y", xs + n/2), or the
    reverse.  n = 4t uses block-of-four subscripts, with the pairs of every
    odd block starting on the inner cycle; the other classes a single
    modular step."""
    case = gp_case(n)
    j = np.arange(n)
    if case.label == CASE_4T:
        block, m = np.divmod(j, 4)
        xs = m * (n // 4) + block + 1
        inner_first = block % 2 == 1
    else:
        xs = j * _STEP[case.label](n) + 1
        inner_first = False
    x, y = xs % n, n + (xs + n // 2) % n  # outer-cycle and inner-cycle indices
    seq = np.empty(2 * n, dtype=np.int64)
    seq[0::2] = np.where(inner_first, y, x)
    seq[1::2] = np.where(inner_first, x, y)
    return seq.tolist()


# ---------------------------------------------------------------------------
# torus orderings, one builder per class
# ---------------------------------------------------------------------------

def _with_shifts(base, r, s, shift):
    """Append copies of the base block translated by multiples of ``shift``."""
    out = list(base)
    c1, c2 = shift
    for j in range(1, s // 4):
        out.extend(((i + j * c1) % r, (jj + j * c2) % s) for i, jj in base)
    return out


def _order_00(r, s):
    base = []
    for i in range(r):
        a = i * (r + 2) // 2
        base += [(a % r, 0),
                 ((a + r // 2) % r, s // 2),
                 ((a + 3 * r // 4) % r, 3 * s // 4),
                 ((a + r // 4) % r, s // 4)]
    return _with_shifts(base, r, s, (1, 1))


def _order_10(r, s):
    """Published (1,0) block; at r = 5 the published (1,1) copy shift
    breaks the block seams, and the copies shift by (4, s/2 + 1)."""
    base = []
    for i in range(r):
        a = i * (r + 1) // 2
        base += [(a % r, 0),
                 ((a + (r - 1) // 2) % r, s // 2),
                 ((a + (3 * r + 1) // 4) % r, 3 * s // 4),
                 ((a + (r - 1) // 4) % r, s // 4)]
    return _with_shifts(base, r, s, (4, s // 2 + 1) if r == 5 else (1, 1))


def _order_20(r, s):
    base = []
    for i in range(r // 2):
        a = i * (r - 2) // 2
        base += [(a % r, 0),
                 ((a + r // 2) % r, s // 2),
                 ((a + (r - 2) // 4) % r, s // 4),
                 ((a + (3 * r - 2) // 4) % r, 3 * s // 4)]
    for i in range(r // 2):
        a = i * (r + 2) // 2
        base += [(a % r, s // 2),
                 ((a + r // 2) % r, 0),
                 ((a + (3 * r + 2) // 4) % r, 3 * s // 4),
                 ((a + (r + 2) // 4) % r, s // 4)]
    return _with_shifts(base, r, s, (1, 1))


def _order_30(r, s):
    """r = 3 (mod 4), s = 0 (mod 4): two-pair period with a unit pair gap.

    Row-0 pairs use the offset ((r-1)/2, s/2) and carry colors (g, g+1);
    row-s/4 pairs use ((r+1)/2, s/2) with equal colors.  The alternation
    keeps every partner-side step at least as long as its anchor step,
    which the published ordering violates.
    """
    u = (r - 3) // 4
    h = (r - 1) // 2
    labels: list[tuple[int, int]] = []
    deltas: list[int] = []
    for j in range(s // 4):
        for i in range(r):
            a = (i * h + j) % r
            labels.append((a, j))
            labels.append(((a + h) % r, (s // 2 + j) % s))
            deltas.append(1)
            labels.append(((a + u) % r, (s // 4 + j) % s))
            labels.append(((a + u + h + 1) % r, (3 * s // 4 + j) % s))
            deltas.append(0)
    return labels, deltas


def _order_parity_rows(r, s, a, pair_off):
    """Row-major two-line scheme used by the odd-r classes when s = 2 mod 8.

    Odd positions sweep the outer index i with first-coordinate step ``a``;
    odd i bumps the second coordinate one extra (s-2)/4 step.  Works exactly
    when (s-2)/4 is even, which separates odd and even positions by row
    parity.
    """
    b = (s - 2) // 4
    out = [None] * (r * s)
    for j in range(s // 2):
        for i in range(r):
            jj = j + (1 if i % 2 == 1 else 0)
            first = (i * a) % r
            second = (jj * b) % s
            pos = 2 * r * j + 2 * i
            out[pos] = (first, second)
            out[pos + 1] = ((first + pair_off[0]) % r, (second + pair_off[1]) % s)
    return out


def _order_22_low(r, s):
    """(2,2) class with r = 6 (mod 8): column-major sweep, j bumps on odd i."""
    a = (r - 2) // 4
    t = (s + 2) // 4
    out = [None] * (r * s)
    for j in range(r):
        for i in range(s // 2):
            jj = j + (1 if i % 2 == 1 else 0)
            first = (jj * a) % r
            second = (i * t) % s
            pos = s * j + 2 * i
            out[pos] = (first, second)
            out[pos + 1] = ((first + r // 2) % r, (second + s // 2) % s)
    return out


def _order_22_high(r, s):
    """(2,2) class with r = s = 2 (mod 8): fixed first-coordinate bump."""
    a = (r + 2) // 4
    c = (r - 2) // 4
    t = (s + 2) // 4
    out = [None] * (r * s)
    for j in range(r):
        for i in range(s // 2):
            first = (j * a + (c if i % 2 == 1 else 0)) % r
            second = (i * t) % s
            pos = s * j + 2 * i
            out[pos] = (first, second)
            out[pos + 1] = ((first + r // 2) % r, (second + s // 2) % s)
    return out


def _order_zigzag6(r, aa, bb):
    """s = 6 repair: sweep rows 0,1,2 r times (steps +1,+1,-2 on the row,
    aa,aa,bb on the column), pairing each vertex with its (+(r+1)/2, +3)
    translate.  Covers the torus whenever gcd(2*aa + bb, r) = 1."""
    s = 6
    pts = [(0, 0)]
    x = y = 0
    for m in range(3 * r - 1):
        if m % 3 == 2:
            x, y = (x + bb) % r, (y - 2) % s
        else:
            x, y = (x + aa) % r, (y + 1) % s
        pts.append((x, y))
    off = ((r + 1) // 2, 3)
    out = []
    for i, j in pts:
        out.append((i, j))
        out.append(((i + off[0]) % r, (j + off[1]) % s))
    return out


def reference_normalized_ordering(case):
    """The torus ordering (and per-pair deltas, usually all zero) in
    normalized space, from one builder per class: the nine loops that
    ``torus._blocks`` and ``torus._sweep`` replace, kept as the reference
    their parameters must reproduce."""
    r, s, label = case.r, case.s, case.label
    if label == LODD:
        raise TorusError("no construction for odd rs; only a lower bound")
    labels = None
    if label == L00:
        labels = _order_00(r, s)
    elif label == L10:
        labels = _order_10(r, s)
    elif label == L20:
        labels = _order_20(r, s)
    elif label == L30:
        if r >= 7 or s == 4:
            return _order_30(r, s)
    elif label == L32:
        if s % 8 == 2:
            labels = _order_parity_rows(r, s, (r + 1) // 4, ((r + 1) // 2, s // 2))
        elif s == 6:
            labels = _order_zigzag6(r, (r + 1) // 4, (r - 3) // 4)
    elif label == L12:
        if s % 8 == 2:
            labels = _order_parity_rows(r, s, (r - 1) // 4, ((r + 1) // 2, s // 2))
        elif s == 6 and gcd((3 * r - 7) // 4, r) == 1:
            labels = _order_zigzag6(r, (r - 1) // 4, (r - 5) // 4)
    elif label in (L22H, L22M):
        labels = _order_22_low(r, s) if r % 8 == 6 else _order_22_high(r, s)
    if labels is not None:
        return labels, None
    raise ConstructionError(f"no construction for ({r},{s})")
