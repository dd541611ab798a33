"""Branch-and-bound exact computation of the radio k-chromatic number.

Depth-first assignment of colors in a fixed vertex order with incumbent
pruning.  The incumbent is seeded from the antipodal constructions when the
graph's adjacency is one of the built-in families' edge sets (and
k = diameter - 1), otherwise from a greedy coloring.  Exhaustive by design;
intended for graphs of up to roughly 14 vertices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .families import construct
from .graphs import Graph, DistanceMatrix, family_dims
from .radio import Coloring, RadioError, span
from .torus import TorusError

SOLVED = "Solved"
TIMED_OUT = "TimedOut"


@dataclass(frozen=True)
class ExactResult:
    status: str  # Solved | TimedOut
    value: int  # exact span if Solved, best known upper bound otherwise
    lower_bound: int
    witness: Coloring
    nodes: int
    elapsed: float


def greedy_coloring(graph: Graph, dist: DistanceMatrix, k: int,
                    order=None) -> Coloring:
    """First-fit coloring along ``order``; always valid, rarely minimal."""
    if order is None:
        order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    colors: dict[int, int] = {}
    for v in order:
        c = 0
        while any(abs(c - cu) < 1 + k - dist.d(v, u) for u, cu in colors.items()):
            c += 1
        colors[v] = c
    return Coloring(colors=tuple(colors[v] for v in range(graph.n)), k=k)


def _construction_seed(graph: Graph, dist: DistanceMatrix, k: int) -> Coloring | None:
    """The family's construction, if it has one, when k = diameter - 1."""
    if k != dist.diameter - 1:
        return None
    try:
        return construct(graph.family, **graph.params).coloring
    except TorusError:  # no construction for this family or size
        return None


def exact_rc_k(graph: Graph, dist: DistanceMatrix, k: int,
               node_budget: int = 10 ** 8, time_budget: float = 60.0,
               pin_first: bool | None = None) -> ExactResult:
    """Minimum span over all radio k-colorings, with a witness.

    ``pin_first`` fixes the first vertex's color to 0; sound only under
    vertex transitivity, so the default enables it just for the built-in
    families, and only when the adjacency is the declared family's edge set
    (a relabeled graph gets neither the pin nor the construction seed).  The
    search order is descending degree then index; a color c is pruned as
    soon as c reaches the incumbent span.
    """
    n = graph.n
    if not 1 <= k <= dist.diameter:
        raise RadioError("k out of range 1..diameter")
    is_family = family_dims(graph) is not None
    if pin_first is None:
        pin_first = is_family
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))

    seed = _construction_seed(graph, dist, k) if is_family else None
    if seed is None:
        seed = greedy_coloring(graph, dist, k, order)
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

    assigned = [0] * n
    nodes = 0
    start = time.monotonic()
    timed_out = False

    def feasible(i: int, c: int) -> bool:
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
        if i == 0 and pin_first:
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
