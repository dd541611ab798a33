"""Branch-and-bound exact computation of the radio k-chromatic number.

Depth-first assignment of colors in a fixed vertex order with incumbent
pruning.  The incumbent is seeded from the antipodal constructions when the
graph's adjacency is one of the built-in families' edge sets (and
k = diameter - 1), otherwise from a greedy coloring.  Those graphs are
vertex-transitive, so their first vertex's color is fixed to 0; no other
graph's is.  The forbidden colors of every later position are bit masks
packed into one integer, one lane of span + 2k + 1 bits per position.  A
node reads its own lane, jumps from one feasible color to the next, and
hands its child the lanes ORed with the bands its color forbids, all in a
few big-integer operations on the lanes still ahead.  The table of bands
takes about n^2/2 lanes, so a search whose table would exceed
``TABLE_BITS_CAP`` is refused.  Exhaustive by design.
After a timeout each frame still on the stack, from the deepest up, counts
the colors it has left in one step, as a color-by-color loop would: it
counts on until its colors run out or the count reaches the next multiple
of 4096, where the budget is read again.  So each frame can add up to 4096
nodes past the budget, and the overshoot grows with the depth of the stack
(GP(100) at a 10-node budget reports 27,099 nodes).

On the built-in families' graphs, under the same gate as the seed, the
search also skips mirror images by lex-leader symmetry breaking (Crawford,
Ginsberg, Luks and Roy, KR 1996).  The automorphisms of the cycle product
that fix the first vertex v_0 are its per-axis reflections i -> -i mod m,
with the axis swap of a square torus (``graphs.product_reflections``): one
for a cycle or GP(n,1), three for T(r,s), seven for T(r,r).  For each such
sigma, with j the first search position that sigma moves, the search
requires c(v_j) <= c(sigma(v_j)): when v_j takes color c, the colors below c
are ORed into the lane of sigma(v_j), which sits at a later position, and
are counted like any other forbidden color.  An optimum survives: c o sigma
is a valid coloring of the same span and the same c(v_0) = 0, the
lexicographically least coloring of each orbit satisfies c <=_lex c o sigma,
and as sigma fixes the positions before j, that inequality reduces to
c(v_j) <= c(sigma(v_j)).  Positions that carry no rule do no extra work.
On a cycle the rule never prunes: its one reflection moves v_1 to v_{n-1},
the last search position, where the colors it excludes are counted as nodes
like any other, and C_3..C_16 walk the same tree without it.

Measured on a 2-vCPU Xeon VM at k = diameter - 1 with the default budgets:
C16, GP(7), T(3,5) and T(4,4) (up to 16 vertices) are settled in under
0.1 s each, T(4,4) in 1.3M nodes (3.9M without the rule); GP(8) = 21 and
T(3,6) = 16 (16 and 18 vertices) in 2.5-3.2 s, after 90M and 84M nodes; C20
and T(4,5) (20 vertices) stop at the 10^8-node budget in 1.2-3.1 s.  Those
four long searches run at 26-86M nodes/s, and the benchmark's whole
exact-solve workload at about 18M nodes/s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .families import construct
from .graphs import Graph, Distances, family_dims, product_reflections
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


def greedy_coloring(graph: Graph, dist: Distances, k: int) -> Coloring:
    """First-fit coloring in descending degree then index order; always
    valid, rarely minimal."""
    colors: dict[int, int] = {}
    for v in sorted(range(graph.n), key=lambda v: (-graph.degree(v), v)):
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


class _LexBand(int):
    """The bands ``spread[j]`` of a position j that carries lex-leader rules.
    Shifted to color c, it also forbids the colors below c in each lane
    where ``rule`` has a bit at the foot: the lanes of the sigma(v_j).  Only
    these few positions pay for the method call."""

    def __new__(cls, bands: int, rule: int, k: int):
        self = super().__new__(cls, bands)
        self.rule, self.k = rule, k
        return self

    def __lshift__(self, c: int) -> int:
        rule = self.rule
        return int.__lshift__(self, c) | (rule << (self.k + c)) - rule


def exact_rc_k(graph: Graph, dist: Distances, k: int,
               node_budget: int = 10 ** 8, time_budget: float = 60.0) -> ExactResult:
    """Minimum span over all radio k-colorings, with a witness.

    On the built-in families' graphs, and only when the adjacency is the
    declared family's edge set, the first vertex's color is fixed to 0,
    which is sound under vertex transitivity; the same gate adds the
    construction seed and the lex-leader rule of the module docstring (a
    relabeled graph gets none of them).  The search order is descending
    degree then index; a color c is pruned as soon as c reaches the
    incumbent span.  ``nodes`` counts the colors tried, forbidden ones
    included.  Both budgets must be finite and >= 0, and the packed table of
    bands must fit ``TABLE_BITS_CAP``; otherwise ``RadioError``.
    """
    n = graph.n
    if not 1 <= k <= dist.diameter:
        raise RadioError("k out of range 1..diameter")
    for name, budget in (("node_budget", node_budget), ("time_budget", time_budget)):
        if not 0 <= budget < math.inf:  # false for nan as well
            raise RadioError(f"{name} must be finite and >= 0")
    dims = family_dims(graph)
    is_family = dims is not None
    order = sorted(range(n), key=lambda v: (-graph.degree(v), v))

    seed = _construction_seed(graph, dist, k) if is_family else None
    if seed is None:
        seed = greedy_coloring(graph, dist, k)
    incumbent = span(seed)
    witness = seed

    # Forbidden colors as bit masks.  Bit p of a lane stands for color p - k,
    # so the band of colors within required - 1 of color a is one left shift,
    # window[required] << a, with no negative shift.  Every later position
    # has its own width-bit lane in one integer: lane p - i - 1 of spread[i]
    # holds the band that position i forbids at position p, so a node at
    # position i hands its child (masks >> width) | spread[i] << c.  Colors
    # stay below the seed's span, so a shifted band never reaches the next
    # lane.
    width = incumbent + 2 * k + 1
    table_bits = n * (n + 1) // 2 * width
    if table_bits > TABLE_BITS_CAP:
        raise RadioError(f"exact search on {n} vertices needs a {table_bits >> 23} MiB "
                         f"table, above the {TABLE_BITS_CAP >> 23} MiB cap")
    window = [0] + [((1 << (2 * r - 1)) - 1) << (k - r + 1) for r in range(1, k + 1)]
    at_i, at_p = np.triu_indices(n, 1)  # every pair of positions i < p, row by row
    vertex = np.array(order)
    required = iter((1 + k - dist.dists(vertex[at_i], vertex[at_p])).tolist())
    spread = [0] * n
    for i in range(n):
        bands = 0
        for p_lane in range(n - i - 1):
            r = next(required)
            if r > 0:
                bands |= window[r] << (p_lane * width)
        spread[i] = bands
    if is_family:
        # The lex-leader rule: position j, the first that sigma moves, marks
        # the lane of sigma(v_j).  The graph is regular, so order[0] is
        # vertex 0, which every sigma fixes.
        position = {v: p for p, v in enumerate(order)}
        rules: dict[int, int] = {}
        for sigma in product_reflections(dims):
            j = next(p for p, v in enumerate(order) if sigma[v] != v)
            rules[j] = rules.get(j, 0) | 1 << ((position[sigma[order[j]]] - j - 1) * width)
        for j, rule in rules.items():
            spread[j] = _LexBand(spread[j], rule, k)
    lane = (1 << width) - 1
    last = n - 1

    assigned = [0] * n
    nodes = 0
    next_check = 4096  # the clock and the budget are read every 4096 nodes
    guard = incumbent  # the incumbent, or -1 once the search has timed out
    start = time.monotonic()

    def tick() -> bool:
        # Read the budgets at each multiple of 4096 that nodes has reached.
        # A timeout stops the count at that multiple, and each later count at
        # the next one, as in a color-by-color loop.
        nonlocal nodes, next_check, guard
        while nodes >= next_check:
            if next_check > node_budget or time.monotonic() - start > time_budget:
                nodes = next_check
                guard = -1
            next_check += 4096
            if guard < 0:
                return True
        return False

    def leaf(i: int, masks: int) -> None:
        # every color on the path is below the incumbent: an improvement
        nonlocal incumbent, guard, witness
        incumbent = guard = max(assigned)
        out = [0] * n
        for pos, v in enumerate(order):
            out[v] = assigned[pos]
        witness = Coloring(colors=tuple(out), k=k)

    def dfs(i: int, masks: int) -> None:
        # One node per color tried at position i, in increasing order, up to
        # top, the incumbent.  A run of forbidden colors is counted in one
        # step, so the node count and the points where the budgets are read
        # are those of a color-by-color loop.  end is the last color the
        # exit counts: top - 1, or top itself once an improvement has lowered
        # top, as that loop counts the color it breaks on.
        nonlocal nodes
        blocked = (masks & lane) >> k  # bit c set: color c is forbidden
        nxt = (blocked ^ (blocked + 1)).bit_length() - 1  # first allowed color
        top = guard
        if nxt >= top:
            nodes += top
            if nodes >= next_check:
                tick()
            return
        rest = masks >> width
        bands = spread[i]
        child = dfs if i < last else leaf
        prev, end = -1, top - 1
        while nxt < top:
            nodes += nxt - prev
            if nodes >= next_check and tick():
                return
            assigned[i] = prev = nxt
            child(i + 1, rest | bands << nxt)
            if guard < top:  # an improvement below top, or a timeout
                if incumbent < top and prev < end:  # colors are left
                    top = end = incumbent
                    if prev + 1 >= top or max(assigned[:i], default=0) >= top:
                        top, end = -1, prev + 1  # the next color breaks the loop
                if guard < 0:
                    top = -1  # the colors left, counted in one step
            blocked |= blocked + 1
            nxt = (blocked ^ (blocked + 1)).bit_length() - 1
        nodes += end - prev
        if nodes >= next_check:
            tick()

    if is_family:  # color 0 at position 0, one node
        nodes = 1
        dfs(1, spread[0])
    else:
        dfs(0, 0)
    elapsed = time.monotonic() - start
    if guard < 0:
        lower = max(0, (n - 1) * (k + 1 - dist.diameter), min(k, incumbent))
        return ExactResult(TIMED_OUT, incumbent, lower, witness, nodes, elapsed)
    return ExactResult(SOLVED, incumbent, incumbent, witness, nodes, elapsed)
