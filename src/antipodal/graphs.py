"""Graph families and exact distance computation.

Builds cycles, generalized Petersen graphs GP(n,1), toroidal grids and
Cartesian products as immutable adjacency structures, and computes exact
hop distances: ``distances`` uses the closed form for cycles, GP(n,1) and
tori and breadth-first search (``all_pairs_distances``) for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque
from itertools import chain
from math import prod
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
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    labels: Mapping[Label, int] | None = field(default=None)
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.adjacency) != self.n:
            raise GraphError("adjacency size does not match vertex count")
        seen_pairs = set()
        for u, row in enumerate(self.adjacency):
            if len(set(row)) != len(row):
                raise GraphError(f"duplicate neighbors at vertex {u}")
            for v in row:
                if v == u:
                    raise GraphError(f"self-loop at vertex {u}")
                if not 0 <= v < self.n:
                    raise GraphError(f"neighbor {v} out of range")
                seen_pairs.add((u, v))
        for u, v in seen_pairs:
            if (v, u) not in seen_pairs:
                raise GraphError(f"asymmetric edge ({u}, {v})")
        if self.labels is not None:
            if sorted(self.labels.values()) != list(range(self.n)):
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
        return self._inverse()[v]

    def _inverse(self) -> dict[int, Label]:
        inv = getattr(self, "_label_inverse", None)
        if inv is None:
            inv = {i: lab for lab, i in self.labels.items()}
            object.__setattr__(self, "_label_inverse", inv)
        return inv

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency) // 2


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances plus the diameter, exact integers."""

    dist: np.ndarray
    diameter: int

    def d(self, u: int, v: int) -> int:
        return int(self.dist[u, v])

    @property
    def n(self) -> int:
        return int(self.dist.shape[0])


def _assert_connected(adjacency) -> None:
    n = len(adjacency)
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    if count != n:
        raise GraphError("graph is not connected")


def _from_edge_set(n, edge_set, labels, family, params) -> Graph:
    adj = [[] for _ in range(n)]
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    adjacency = tuple(tuple(sorted(row)) for row in adj)
    return Graph(n=n, adjacency=adjacency, labels=labels, family=family, params=params)


def make_cycle(n: int) -> Graph:
    """Cycle C_n with vertex i adjacent to (i +/- 1) mod n."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    labels = {i: i for i in range(n)}
    return _from_edge_set(n, edges, labels, "cycle", {"n": n})


def make_gp(n: int) -> Graph:
    """Generalized Petersen graph GP(n,1): two n-cycles joined by spokes.

    Outer-cycle vertices are labeled ("x", i) at index i, inner-cycle
    vertices ("y", i) at index n + i.
    """
    if n < 3:
        raise GraphError("GP(n,1) needs n >= 3")
    edges = set()
    for i in range(n):
        j = (i + 1) % n
        edges.add((min(i, j), max(i, j)))                  # outer cycle
        edges.add((min(n + i, n + j), max(n + i, n + j)))  # inner cycle
        edges.add((i, n + i))                              # spoke
    labels = {("x", i): i for i in range(n)}
    labels.update({("y", i): n + i for i in range(n)})
    return _from_edge_set(2 * n, edges, labels, "gp", {"n": n})


def make_torus(r: int, s: int) -> Graph:
    """Toroidal grid C_r x C_s with vertices labeled (i, j), 4-regular."""
    if r < 3 or s < 3:
        raise GraphError("torus needs r, s >= 3")
    def idx(i, j):
        return (i % r) * s + (j % s)
    edges = set()
    for i in range(r):
        for j in range(s):
            u = idx(i, j)
            for v in (idx(i + 1, j), idx(i, j + 1)):
                edges.add((min(u, v), max(u, v)))
    labels = {(i, j): idx(i, j) for i in range(r) for j in range(s)}
    return _from_edge_set(r * s, edges, labels, "torus", {"r": r, "s": s})


def make_cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (u1,v1)~(u2,v2) iff equal in one coordinate and
    adjacent in the other.  Labels carry the pair structure."""
    n = g.n * h.n
    def idx(a, b):
        return a * h.n + b
    edges = set()
    for a in range(g.n):
        for b in range(h.n):
            u = idx(a, b)
            for a2 in g.adjacency[a]:
                v = idx(a2, b)
                edges.add((min(u, v), max(u, v)))
            for b2 in h.adjacency[b]:
                v = idx(a, b2)
                edges.add((min(u, v), max(u, v)))
    labels = {(g.label_of(a), h.label_of(b)): idx(a, b)
              for a in range(g.n) for b in range(h.n)}
    return _from_edge_set(n, edges, labels, "product",
                          {"left": (g.family, dict(g.params)),
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


def distances(graph: Graph) -> DistanceMatrix:
    """Exact all-pairs hop distances: closed form where the graph is a
    built-in family, breadth-first search otherwise.

    Cycles, GP(n,1) = K_2 x C_n and tori C_r x C_s are Cartesian products of
    cycles (K_2 being the cycle on two vertices, distance-wise), so their
    distances add coordinatewise.  The closed form is used only after
    checking that the adjacency is exactly the declared family's edge set;
    any other graph goes to ``all_pairs_distances``.
    """
    dims = family_dims(graph)
    if dims is None:
        return all_pairs_distances(graph)
    return DistanceMatrix(dist=_cycle_product_distances(dims),
                          diameter=sum(m // 2 for m in dims))


def _cycle_hops(m: int, a, b):
    """Vectorized ``cyclic_distance`` on C_m."""
    delta = (a - b) % m
    return np.minimum(delta, m - delta)


# Each built-in family as a Cartesian product of cycles, in the row-major
# order of its vertex indices; the parameter names are the keys of its params.
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
    adjacency is that product's edge set.  O(V + E).
    """
    dims = family_cycles(graph.family, graph.params)
    if dims is None:
        return None
    degree = sum(1 if m == 2 else 2 for m in dims)
    if prod(dims) != graph.n or graph.edge_count != graph.n * degree // 2:
        return None
    # same size, and every edge is a product edge: the edge sets are equal
    counts = np.fromiter(map(len, graph.adjacency), dtype=np.intp, count=graph.n)
    u = np.repeat(np.arange(graph.n), counts)
    v = np.fromiter(chain.from_iterable(graph.adjacency), dtype=np.intp, count=len(u))
    hops = sum(_cycle_hops(m, a, b) for m, a, b in
               zip(dims, np.unravel_index(u, dims), np.unravel_index(v, dims)))
    return dims if (hops == 1).all() else None


def _cycle_product_distances(dims: tuple[int, ...]) -> np.ndarray:
    """int32 distance matrix of C_{m_1} x ... x C_{m_k}, row-major indices.

    Written in place through a 2k-axis view of the one V x V array; each
    cycle term is a circulant read as a sliding-window view, so nothing
    else of size V^2 is allocated.
    """
    size = prod(dims)
    dist = np.zeros((size, size), dtype=np.int32)
    grid = dist.reshape(dims + dims)
    k = len(dims)
    for axis, m in enumerate(dims):
        row = _cycle_hops(m, np.arange(m, dtype=np.int32), 0)
        # circulant[i, j] = row[(j - i) % m] = window m - i of row + row
        circulant = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([row, row]), m)[m:0:-1]
        others = tuple(a for a in range(2 * k) if a not in (axis, k + axis))
        grid += np.expand_dims(circulant, others)
    return dist


def closed_form_diameter(family: str, params: Mapping[str, int]) -> int:
    """Diameter of a built-in family: the sum of m // 2 over its cycles."""
    dims = family_cycles(family, params)
    if dims is None or min(params.values()) < 3:
        raise GraphError(f"no closed-form diameter for {family} {dict(params)}")
    return sum(m // 2 for m in dims)
