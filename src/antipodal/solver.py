"""Branch-and-bound exact computation of the radio k-chromatic number.

Depth-first assignment of colors in a fixed vertex order with incumbent
pruning.  The incumbent is seeded from the antipodal constructions when the
graph's adjacency is one of the built-in families' edge sets (and
k = diameter - 1), otherwise from a greedy coloring.  The forbidden colors
of every later position are bit masks packed into one integer, one lane of
span + 2k + 1 bits per position.  A node reads its own lane, jumps from one
feasible color to the next, and hands its child the lanes ORed with the
bands its color forbids, all in a few big-integer operations on the lanes
still ahead.  The table of bands takes about n^2/2 lanes, so a search whose
table would exceed ``TABLE_BITS_CAP`` is refused.  Exhaustive by design.
Measured on a 2-vCPU Xeon VM: about 20M nodes/s over the benchmark's
exact-solve workload; at k = diameter - 1 with the default budgets,
C16, GP(7), T(3,5) and T(4,4) (up to 16 vertices) are settled in
under 0.2 s each, and C20, GP(8), T(3,6) and T(4,5) (16 to 20 vertices)
stop at the 10^8-node budget in 2-7 s, at 15-50M nodes/s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .families import construct
from .graphs import Graph, Distances, family_dims
from .radio import Coloring, RadioError, span
from .results import ConstructionError, TorusError

SOLVED = "Solved"
TIMED_OUT = "TimedOut"
TABLE_BITS_CAP = 1 << 27  # 16 MiB of packed forbidden-color lanes


@dataclass(frozen=True)
class ExactResult:
    status: str  # Solved | TimedOut
    value: int  # exact span if Solved, best known upper bound otherwise
    lower_bound: int
    witness: Coloring
    nodes: int
    elapsed: float


def greedy_coloring(graph: Graph, dist: Distances, k: int,
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


def _construction_seed(graph: Graph, dist: Distances, k: int) -> Coloring | None:
    """The family's construction, if it has one, when k = diameter - 1."""
    if k != dist.diameter - 1:
        return None
    try:
        return construct(graph.family, **graph.params).coloring
    except (ConstructionError, TorusError):  # no construction for this family or size
        return None


def exact_rc_k(graph: Graph, dist: Distances, k: int,
               node_budget: int = 10 ** 8, time_budget: float = 60.0,
               pin_first: bool | None = None) -> ExactResult:
    """Minimum span over all radio k-colorings, with a witness.

    ``pin_first`` fixes the first vertex's color to 0; sound only under
    vertex transitivity, so the default enables it just for the built-in
    families, and only when the adjacency is the declared family's edge set
    (a relabeled graph gets neither the pin nor the construction seed).  The
    search order is descending degree then index; a color c is pruned as
    soon as c reaches the incumbent span.  ``nodes`` counts the colors tried,
    forbidden ones included.  Both budgets must be finite and >= 0, and the
    packed table of bands must fit ``TABLE_BITS_CAP``; otherwise ``RadioError``.
    """
    n = graph.n
    if not 1 <= k <= dist.diameter:
        raise RadioError("k out of range 1..diameter")
    for name, budget in (("node_budget", node_budget), ("time_budget", time_budget)):
        if not 0 <= budget < math.inf:  # false for nan as well
            raise RadioError(f"{name} must be finite and >= 0")
    is_family = family_dims(graph) is not None
    if pin_first is None:
        pin_first = is_family
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))

    seed = _construction_seed(graph, dist, k) if is_family else None
    if seed is None:
        seed = greedy_coloring(graph, dist, k, order)
    incumbent = span(seed)
    witness = seed

    # Forbidden colors as bit masks.  Bit p of a lane stands for color p - k,
    # so the band of colors within required - 1 of color a is one left shift,
    # window[required] << a, with no negative shift.  Every later position
    # has its own width-bit lane in one integer: lane p - i of spread[i] holds
    # the band that position i forbids at position p.  Colors stay below the
    # seed's span, so a shifted band never reaches the next lane.
    width = incumbent + 2 * k + 1
    table_bits = n * (n + 1) // 2 * width
    if table_bits > TABLE_BITS_CAP:
        raise RadioError(f"exact search on {n} vertices needs a {table_bits >> 23} MiB "
                         f"table, above the {TABLE_BITS_CAP >> 23} MiB cap")
    window = [0] + [((1 << (2 * r - 1)) - 1) << (k - r + 1) for r in range(1, k + 1)]
    spread = [0] * n
    for i, v in enumerate(order):
        for p in range(i + 1, n):
            required = 1 + k - dist.d(v, order[p])
            if required > 0:
                spread[i] |= window[required] << ((p - i) * width)
    lane = (1 << width) - 1

    assigned = [0] * n
    nodes = 0
    next_check = 4096  # the clock and the budget are read every 4096 nodes
    start = time.monotonic()
    timed_out = False

    def dfs(i: int, current_max: int, masks: int) -> None:
        # One node per color tried at position i, in increasing order; the
        # loop breaks on the first color c with max(current_max, c) >=
        # incumbent.  A run of forbidden colors is counted in one step, so
        # the node count and the points where the clock and the budget are
        # read are those of a color-by-color loop.  After a timeout the
        # callers go on counting their remaining colors until their loop ends
        # or the next multiple of 4096.
        nonlocal incumbent, witness, nodes, next_check, timed_out
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
        free = ~((masks & lane) >> k)  # bit c set: color c is allowed
        top = incumbent  # colors >= incumbent cannot improve
        if i == 0 and pin_first:
            top = 1
        c = 0
        while c < top:
            nxt = (free & -free).bit_length() - 1  # first allowed color >= c
            if current_max >= incumbent or c >= incumbent:
                stop = c  # the color at which the loop breaks
            else:
                stop = incumbent
            last = nxt if nxt < stop else stop  # last color tried in this step
            nodes += last - c + 1 if last < top else top - c
            while nodes >= next_check:
                if next_check > node_budget or time.monotonic() - start > time_budget:
                    nodes = next_check
                    timed_out = True
                next_check += 4096
                if timed_out:
                    return
            if last >= top or last == stop:
                return
            assigned[i] = nxt
            dfs(i + 1, current_max if current_max > nxt else nxt,
                (masks | spread[i] << nxt) >> width)
            free &= free - 1
            c = nxt + 1

    dfs(0, 0, 0)
    elapsed = time.monotonic() - start
    if timed_out:
        lower = max(0, (n - 1) * (k + 1 - dist.diameter), min(k, incumbent))
        return ExactResult(TIMED_OUT, incumbent, lower, witness, nodes, elapsed)
    return ExactResult(SOLVED, incumbent, incumbent, witness, nodes, elapsed)
