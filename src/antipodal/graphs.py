"""Graph families and exact distance computation.

Builds cycles, generalized Petersen graphs GP(n,1) = K_2 x C_n and toroidal
grids C_r x C_s as products of cycles, and Cartesian products of any two
graphs, as immutable adjacency structures.

The public ``Graph`` constructor checks every input in one pass over the
rows, in vertex order: no duplicate neighbour, then no self-loop and no
neighbour out of range; then every pair (u, v) must have its reverse
(symmetry), the labels must be a bijection onto the indices, and a
breadth-first search checks connectivity.  Its edge set, the sorted pair
keys u * n + v that ``edge_count`` and ``family_dims`` read, is built from
the adjacency on first use.  The builders ``make_cycle``, ``make_gp`` and
``make_torus`` return a ``Graph`` that records only the vertex count, the
family, its params and the product's cycle lengths, so ``family_dims`` is
O(1) on their graphs.  Its neighbour rows, adjacency and labels are closed
forms of the index, built on first use: ``gen`` and ``verify`` build none
of them, nor the pair keys.  These graphs skip the checks, as their rows
are simple, symmetric and connected by construction; a test census
rebuilds every builder graph of C_3..C_60, GP(3..60) and the tori up to
15 x 15 through the checking constructor.  Any other graph, including a
hand-built one that names a built-in family, has its edge set compared
with the product's by ``family_dims``.

``distances`` computes exact hop distances: closed-form lookups
(``CycleProductDistances``, two hop tables and no V x V array) for the
built-in families, and breadth-first search (``all_pairs_distances``) for
anything else.  Both answer ``dists(us, vs)`` for whole arrays of vertex
pairs; ``d(u, v)`` wraps it for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, product
from math import prod
from operator import index
from typing import Iterator, Mapping

import numpy as np

Label = object


class GraphError(ValueError):
    """Raised for malformed or disconnected graph inputs."""


def cyclic_distance(n: int, a: int, b: int) -> int:
    """Hop distance between positions a and b on the cycle C_n."""
    delta = (a - b) % n
    return min(delta, n - delta)


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple connected graph with optional structured labels.

    Vertices are indexed 0..n-1.  ``labels`` maps a structured label
    (e.g. ("x", 3) for the outer cycle of GP(n,1), or (i, j) for a torus)
    bijectively onto the index range.  ``family``/``params`` record how the
    graph was built so downstream code can pick closed forms and seeds.

    The constructor rejects a size mismatch, a self-loop, a duplicate or
    out-of-range neighbour, an asymmetric edge, labels that are not a
    bijection and a disconnected graph, each with a ``GraphError``.  Graphs
    from ``make_cycle``, ``make_gp`` and ``make_torus`` are correct by
    construction and skip these checks (see ``_CycleProductGraph``).
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: Mapping[Label, int] | None = field(default=None)
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1 or len(self.adjacency) != n:
            raise GraphError("adjacency size does not match vertex count")
        rows = []
        for u, row in enumerate(self.adjacency):
            row = list(map(index, row))  # a non-integer neighbour raises TypeError
            neighbours = set(row)
            if len(neighbours) != len(row):
                raise GraphError(f"duplicate neighbors at vertex {u}")
            for v in row:
                if v == u:
                    raise GraphError(f"self-loop at vertex {u}")
                if not 0 <= v < n:
                    raise GraphError(f"neighbor {v} out of range")
            rows.append(neighbours)
        # the first pair (u, v) in lexicographic order whose reverse is missing
        for u, row in enumerate(rows):
            for v in sorted(row):
                if u not in rows[v]:
                    raise GraphError(f"asymmetric edge ({u}, {v})")
        if self.labels is not None:
            if sorted(self.labels.values()) != list(range(n)):
                raise GraphError("labels are not a bijection onto 0..n-1")
        _assert_connected(self.adjacency)

    @property
    def index_of(self) -> Mapping[Label, int]:
        if self.labels is None:
            raise GraphError("graph carries no labels")
        return self.labels

    def label_of(self, v: int) -> Label:
        if self.labels is None:
            return v
        return self._label_inverse[v]

    @cached_property
    def _label_inverse(self) -> dict[int, Label]:
        return {i: lab for lab, i in self.labels.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    @cached_property
    def _pair_keys(self) -> np.ndarray:
        """The edge set: the sorted keys u * n + v of the directed pairs."""
        n = self.n
        return np.sort(np.fromiter(
            (u * n + v for u, row in enumerate(self.adjacency) for v in row), np.int64))

    @property
    def edge_count(self) -> int:
        return len(self._pair_keys) // 2


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances plus the diameter, exact integers."""

    dist: np.ndarray
    diameter: int

    def dists(self, us, vs) -> np.ndarray:
        """d(us[i], vs[i]) for two integer arrays of one shape, as an
        integer array."""
        return self.dist[us, vs]

    def d(self, u: int, v: int) -> int:
        return int(self.dists(u, v))

    @property
    def n(self) -> int:
        return int(self.dist.shape[0])


class CycleProductDistances:
    """Closed-form hop distances of C_r x C_s, vertex u at (u // s, u % s):
    the cycle terms add.  A cycle C_n is C_1 x C_n and GP(n,1) is C_2 x C_n,
    with ("x", i) at index i and ("y", i) at n + i."""

    def __init__(self, r: int, s: int) -> None:
        self.r, self.s, self.n, self.diameter = r, s, r * s, r // 2 + s // 2
        self._hops_r = np.minimum(np.arange(r), r - np.arange(r))
        self._hops_s = np.minimum(np.arange(s), s - np.arange(s))

    def dists(self, us, vs) -> np.ndarray:
        """d(us[i], vs[i]) for two integer arrays of one shape, as an
        integer array."""
        s = self.s
        return self._hops_r[(us // s - vs // s) % self.r] + self._hops_s[(us - vs) % s]

    def d(self, u: int, v: int) -> int:
        return int(self.dists(u, v))


# What ``distances`` returns; both give dists(us, vs), d(u, v), diameter and n.
Distances = DistanceMatrix | CycleProductDistances


def _assert_connected(adjacency) -> None:
    """Breadth-first search from vertex 0: the queue is a list that the loop
    reads while it grows."""
    n = len(adjacency)
    seen = [False] * n
    seen[0] = True
    queue = [0]
    append = queue.append
    for u in queue:
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                append(v)
    if len(queue) != n:
        raise GraphError("graph is not connected")


def _product_rows(dims) -> np.ndarray:
    """Sorted neighbour rows of the product of cycles of lengths ``dims``,
    vertex by vertex in row-major order: +/-1 on each axis mod m."""
    size = prod(dims)
    u = np.arange(size)
    columns = []
    stride = size
    for m in dims:
        stride //= m
        c = u // stride % m
        steps = (1,) if m == 2 else (1, -1)  # C_2 is K_2: one neighbour
        columns += [u + ((c + step) % m - c) * stride for step in steps]
    return np.sort(np.stack(columns, axis=1), axis=1)


def product_reflections(dims) -> list[tuple[int, ...]]:
    """The automorphisms of the product of cycles of lengths ``dims`` that
    fix vertex 0, other than the identity, as tuples ``sigma`` with
    ``sigma[v]`` the image of v: every combination of per-axis reflections
    i -> -i mod m, each also composed with the axis swap of a square
    two-axis product.  The reflection of a C_2 axis is the identity."""
    grid = np.arange(prod(dims)).reshape(dims)
    square = len(dims) == 2 and dims[0] == dims[1]
    images = set()
    for flips in product((False, True), repeat=len(dims)):
        image = grid
        for axis in np.flatnonzero(flips):
            image = np.roll(np.flip(image, axis), 1, axis)
        for sigma in (image, image.T) if square else (image,):
            images.add(tuple(sigma.ravel().tolist()))
    images.discard(tuple(range(grid.size)))
    return sorted(images)


class _CycleProductGraph(Graph):
    """A built-in family's graph: the product of cycles ``family_cycles``
    names, in the row-major order of its vertex indices.

    It records the vertex count, the family, its params and the cycle
    lengths, which answer ``family_dims``.  The rows, adjacency and labels
    are closed forms of the index, each built on first use.  The
    rows are simple, symmetric and connected, and the labels a bijection,
    by construction, so ``Graph``'s checks are skipped; the builder tests
    rebuild each graph through them.
    """

    def __init__(self, family: str, params: dict) -> None:
        dims = family_cycles(family, params)
        vars(self).update(n=prod(dims), family=family, params=params, _cycle_dims=dims)

    @cached_property
    def _rows(self) -> np.ndarray:
        return _product_rows(self._cycle_dims)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self._rows.T.tolist()))

    @cached_property
    def labels(self) -> dict[Label, int]:
        return _family_labels(self.family, self.params)


def _family_labels(family: str, params: Mapping) -> dict[Label, int]:
    """The labels of a built-in family's vertices: i on C_n, ("x", i) at
    index i and ("y", i) at n + i on GP(n,1), (i, j) at i * s + j on T(r,s)."""
    if family == "gp":
        labels = product(("x", "y"), range(params["n"]))
    elif family == "torus":
        labels = product(range(params["r"]), range(params["s"]))
    else:
        labels = range(params["n"])
    return dict(zip(labels, count()))


def make_cycle(n: int) -> Graph:
    """Cycle C_n with vertex i adjacent to (i +/- 1) mod n."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return _CycleProductGraph("cycle", {"n": n})


def make_gp(n: int) -> Graph:
    """Generalized Petersen graph GP(n,1) = K_2 x C_n: two n-cycles joined
    by spokes.

    Outer-cycle vertices are labeled ("x", i) at index i, inner-cycle
    vertices ("y", i) at index n + i.
    """
    if n < 3:
        raise GraphError("GP(n,1) needs n >= 3")
    return _CycleProductGraph("gp", {"n": n})


def make_torus(r: int, s: int) -> Graph:
    """Toroidal grid C_r x C_s with vertices labeled (i, j), 4-regular."""
    if r < 3 or s < 3:
        raise GraphError("torus needs r, s >= 3")
    return _CycleProductGraph("torus", {"r": r, "s": s})


def make_cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u1,v1)~(u2,v2) iff equal in one coordinate and
    adjacent in the other.  Labels carry the pair structure."""
    m = h.n
    adjacency = tuple(
        tuple(sorted([a2 * m + b for a2 in g.adjacency[a]]
                     + [a * m + b2 for b2 in h.adjacency[b]]))
        for a in range(g.n) for b in range(m))
    labels = {(g.label_of(a), h.label_of(b)): a * m + b
              for a in range(g.n) for b in range(m)}
    return Graph(n=g.n * m, adjacency=adjacency, labels=labels, family="product",
                 params={"left": (g.family, dict(g.params)),
                         "right": (h.family, dict(h.params))})


def all_pairs_distances(graph: Graph) -> DistanceMatrix:
    """Exact all-pairs hop distances by frontier-parallel BFS.

    Runs one synchronous BFS wave from every source simultaneously using
    boolean numpy frontiers; all arithmetic is integral.
    """
    n = graph.n
    max_deg = max(len(row) for row in graph.adjacency)
    nbr = np.empty((n, max_deg), dtype=np.int64)
    for v, row in enumerate(graph.adjacency):
        nbr[v, : len(row)] = row
        nbr[v, len(row):] = v  # padding; self-gather is masked by `reached`
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached.copy()
    step = 0
    while frontier.any():
        step += 1
        # frontier[s, v] = [d(s, v) = step - 1] is symmetric (the adjacency
        # is), so gathering whole rows, frontier[nbr[:, c]], gives the same
        # result as gathering columns and reads memory contiguously
        nxt = np.zeros((n, n), dtype=bool)
        for c in range(max_deg):
            nxt |= frontier[nbr[:, c]]
        nxt &= ~reached
        dist[nxt] = step
        reached |= nxt
        frontier = nxt
    if not reached.all():
        raise GraphError("graph is not connected")
    return DistanceMatrix(dist=dist, diameter=int(dist.max()))


def distances(graph: Graph) -> Distances:
    """Exact hop distances: closed form where the graph is a built-in
    family, breadth-first search otherwise.

    Cycles, GP(n,1) = K_2 x C_n and tori C_r x C_s are Cartesian products of
    at most two cycles (K_2 being the cycle on two vertices, distance-wise),
    so ``CycleProductDistances`` answers each lookup from two hop tables and
    no V x V array is built.  The closed form is used only after checking
    that the adjacency is exactly the declared family's edge set; any other
    graph goes to ``all_pairs_distances``.
    """
    dims = family_dims(graph)
    if dims is None:
        return all_pairs_distances(graph)
    return CycleProductDistances(*((1,) + dims)[-2:])


# Each built-in family as a Cartesian product of cycles, in the row-major
# order of its vertex indices; the parameter names are the keys of its params.
# The builders, the adjacency check and the closed-form distances all read it.
_FAMILY_CYCLES = {
    "cycle": lambda n: (n,),
    "gp": lambda n: (2, n),  # ("x", i) at index i, ("y", i) at n + i
    "torus": lambda r, s: (r, s),
}


def family_cycles(family: str, params: Mapping) -> tuple[int, ...] | None:
    """Cycle lengths of the product a built-in family is, or None for any
    other family or for params that do not name one."""
    try:
        dims = _FAMILY_CYCLES[family](**params)
    except (KeyError, TypeError):
        return None
    return dims if all(isinstance(m, int) and m >= 2 for m in dims) else None


def family_dims(graph: Graph) -> tuple[int, ...] | None:
    """``family_cycles`` of the graph's declared family, or None unless its
    adjacency is that product's edge set.  O(1) for a graph from the
    built-in builders, which record their cycle lengths; O(V + E) for any
    other graph, whose pair keys are compared with the product's.
    """
    dims = getattr(graph, "_cycle_dims", None)
    if dims is not None:
        return dims
    dims = family_cycles(graph.family, graph.params)
    if dims is None or prod(dims) != graph.n:
        return None
    expected = np.arange(graph.n)[:, None] * graph.n + _product_rows(dims)
    return dims if np.array_equal(graph._pair_keys, expected.ravel()) else None


def closed_form_diameter(family: str, params: Mapping[str, int]) -> int:
    """Diameter of a built-in family: the sum of m // 2 over its cycles."""
    dims = family_cycles(family, params)
    if dims is None or min(params.values()) < 3:
        raise GraphError(f"no closed-form diameter for {family} {dict(params)}")
    return sum(m // 2 for m in dims)
