"""Radio k-colorings: verification, spans, orderings and minimality certificates.

A radio k-coloring assigns non-negative integer colors so that every vertex
pair (u, v) satisfies |g(u) - g(v)| >= 1 + k - d(u, v).  The antipodal case
is k = d - 1.  Along any color-sorted vertex ordering the per-step slack
eps_j = g(v_j) - g(v_{j-1}) - (1 + k - d(v_j, v_{j-1})) is non-negative, and
the span telescopes to (n-1)(k+1) - sum d + sum eps.  The pattern
certificate checks the paper's condition that consecutive odd-position pairs
are diametral and every two-step distance equals the shorter distance plus
the interleaved slacks.  That pattern does not imply minimality (GP(5)'s
span-8 construction passes it; the optimum is 6), so the minimality
certificate adds a clause that does: the span equals the triameter lower
bound floor((V-1)/2) * ceil((3*diam - tri)/2), which holds for every valid
antipodal coloring of any graph.

Every check here is an array kernel that reads its distances through
``Distances.dists`` on whole arrays of vertex pairs.  ``radio_violations``
sorts the colors, finds the end of each vertex's color window with
``searchsorted`` and checks the candidate pairs ``_PAIR_BLOCK`` at a time,
so its temporary arrays stay a few MB whatever the coloring; only the
violations it returns grow with the input.  Colors or a k of 2^61 or more
are handled as Python integers in object arrays, so no sum wraps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

import numpy as np

from .graphs import CycleProductDistances, Distances, Graph

CLAUSE_DIAMETRAL = "diametral-pair"
CLAUSE_TWO_STEP = "two-step-slack"
CLAUSE_FINAL_PAIR = "final-pair"
CLAUSE_FINAL_SLACK = "final-slack"
CLAUSE_LOWER_BOUND = "triameter-bound"


class RadioError(ValueError):
    """Raised for ill-formed colorings or mismatched parameters."""


@dataclass(frozen=True)
class Coloring:
    """Vertex-indexed non-negative colors for a fixed radio parameter k."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        # exact types: a file's 1.5, "3" or true is not an integer
        if type(self.k) is not int or self.k < 1:
            raise RadioError("k must be an integer >= 1")
        if not set(map(type, self.colors)) <= {int} or min(self.colors, default=0) < 0:
            raise RadioError("colors must be non-negative integers")

    @property
    def n(self) -> int:
        return len(self.colors)


def span(coloring: Coloring) -> int:
    """Largest color used."""
    return max(coloring.colors)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[tuple[int, int, int, int], ...]
    """Each violation is (u, v, required gap, actual gap), u < v, sorted."""


@dataclass(frozen=True)
class ColorOrdering:
    """A color-non-decreasing vertex ordering with its slack sequence.

    ``epsilons[j - 2]`` holds eps_j for ordinal positions j = 2..n (the
    human-facing numbering is 1-based to match the ordinal convention).
    """

    order: tuple[int, ...]
    colors: tuple[int, ...]
    k: int
    epsilons: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    def eps(self, position: int) -> int:
        """eps_j for 1-based ordinal position j in 2..n."""
        return self.epsilons[position - 2]


# Candidate pairs ``radio_violations`` checks at a time.  Each takes about
# 100 bytes of temporary arrays, so a block takes a few MB whatever the input.
_PAIR_BLOCK = 1 << 16


def _int_array(values, k: int = 0) -> np.ndarray:
    """``values`` as an int64 array, or as an object array of Python ints
    where a value or k is too large for their sums to stay within 63 bits."""
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError:  # beyond 64 bits
        return np.array(values, dtype=object)
    if abs(k) < 1 << 61 and (not len(array) or -(1 << 61) < array.min() <= array.max() < 1 << 61):
        return array
    return np.array(values, dtype=object)


def _is_permutation(vertices: np.ndarray, n: int) -> bool:
    """Whether the integer array holds each of 0..n-1 exactly once."""
    return len(vertices) == n and np.array_equal(np.sort(vertices), np.arange(n))


def _ordering(coloring: Coloring, dist: Distances, vertices: np.ndarray) -> ColorOrdering:
    """The ordering of ``coloring`` along the int64 array ``vertices``, with
    its slacks eps_j = g(v_j) - g(v_{j-1}) - (1 + k - d(v_j, v_{j-1})), all
    steps in one ``dists`` call.  Rejects an order whose colors decrease."""
    k = coloring.k
    colors = _int_array(coloring.colors, k)[vertices]
    if (colors[1:] < colors[:-1]).any():
        raise RadioError("order is not color-non-decreasing")
    steps = dist.dists(vertices[:-1], vertices[1:]).astype(colors.dtype)
    epsilons = colors[1:] - colors[:-1] + steps - (k + 1)
    return ColorOrdering(order=tuple(vertices.tolist()), colors=coloring.colors, k=k,
                         epsilons=tuple(epsilons.tolist()))


def ordering_from_sequence(coloring: Coloring, dist: Distances,
                           order) -> ColorOrdering:
    """Wrap an explicit color-non-decreasing vertex sequence.

    Rejects sequences that are not permutations or not sorted by color; an
    entry that is not an integer, or does not fit in 64 bits, makes the
    sequence no permutation.  Constructions certify against their own
    emitted sequence; equal-color ties may therefore sit in any order here.
    """
    order = tuple(order)
    try:
        vertices = np.fromiter(map(index, order), np.int64, len(order))
    except (TypeError, OverflowError):
        vertices = None
    if vertices is None or not _is_permutation(vertices, coloring.n):
        raise RadioError("order is not a permutation of the vertices")
    return _ordering(coloring, dist, vertices)


def order_by_color(coloring: Coloring, dist: Distances) -> ColorOrdering:
    """Canonical ordering: stable sort by (color, vertex index)."""
    return _ordering(coloring, dist, np.argsort(_int_array(coloring.colors), kind="stable"))


def radio_violations(colors, k: int,
                     dist: Distances) -> tuple[tuple[int, int, int, int], ...]:
    """Every vertex pair breaking |g(u) - g(v)| >= 1 + k - d(u, v), sorted,
    as (u, v, required gap, actual gap) with u < v.

    Sorts the vertices by color and pairs each one only with the later
    vertices whose color gap is below k + 1 (``searchsorted`` finds where
    that window ends): a pair with a larger gap can never violate the
    condition.  The candidate pairs are numbered in that order and checked
    as arrays, ``_PAIR_BLOCK`` at a time.
    """
    values = _int_array(colors, k)
    by_color = np.argsort(values, kind="stable")
    ranked = values[by_color]
    n = len(ranked)
    ends = np.searchsorted(ranked, ranked + (k + 1))
    counts = np.maximum(ends - np.arange(1, n + 1), 0)
    firsts = np.cumsum(counts) - counts  # number of the first pair of each rank
    total = int(counts.sum())
    found = []
    for start in range(0, total, _PAIR_BLOCK):
        pair = np.arange(start, min(start + _PAIR_BLOCK, total))
        a = np.searchsorted(firsts, pair, side="right") - 1
        b = a + 1 + pair - firsts[a]
        u, v = by_color[a], by_color[b]
        gap = ranked[b] - ranked[a]
        required = (k + 1) - dist.dists(u, v).astype(values.dtype)
        bad = gap < required
        found.append((np.minimum(u, v)[bad], np.maximum(u, v)[bad],
                      required[bad], gap[bad]))
    if not found:
        return ()
    lo, hi, required, gap = (np.concatenate(column) for column in zip(*found))
    first = np.lexsort((hi, lo))
    return tuple(zip(lo[first].tolist(), hi[first].tolist(),
                     required[first].tolist(), gap[first].tolist()))


def verify_radio_k(graph: Graph, dist: Distances, coloring: Coloring) -> VerificationReport:
    """Check the radio condition at the coloring's k on all vertex pairs
    (``radio_violations``)."""
    k = coloring.k
    if coloring.n != graph.n:
        raise RadioError("coloring size does not match graph order")
    if not 1 <= k <= dist.diameter:
        raise RadioError("k out of range 1..diameter")
    violations = radio_violations(coloring.colors, k, dist)
    return VerificationReport(valid=not violations, violations=violations)


def span_identity_residual(ordering: ColorOrdering, dist: Distances) -> int:
    """span - [(n-1)(k+1) - sum of step distances + sum of slacks], at the
    ordering's k.

    Zero for every valid radio k-coloring whose minimum color is 0; the
    telescoping leaves exactly the minimum color behind.
    """
    k = ordering.k
    order = np.array(ordering.order, dtype=np.int64)
    dsum = int(dist.dists(order[:-1], order[1:]).sum())
    esum = sum(ordering.epsilons)
    return max(ordering.colors) - ((ordering.n - 1) * (k + 1) - dsum + esum)


@dataclass(frozen=True)
class MinimalityCertificate:
    status: str  # "Certified" | "CriterionFailed"
    failures: tuple[tuple[int, str, int, int], ...] = field(default=())
    """Each failure is (ordinal position j, clause, observed, required)."""

    @property
    def certified(self) -> bool:
        return self.status == "Certified"


def triameter(dist: Distances) -> int:
    """An upper bound on max d(u,v) + d(v,w) + d(w,u) over vertex triples,
    exact for cycles, GP(n,1) and tori.

    On a product of cycles the factors add, C_m contributing at most m (2
    for K_2 = C_2, 0 for C_1).  A distance matrix is scanned row by row
    in O(V^3).
    """
    if isinstance(dist, CycleProductDistances):
        return sum(m for m in (dist.r, dist.s) if m > 1)
    d = dist.dist
    return max(int((row[:, None] + row[None, :] + d).max()) for row in d)


def triameter_bound(dist: Distances) -> int:
    """Lower bound floor((V-1)/2) * ceil((3*diam - tri)/2) on the span of
    every valid antipodal coloring.

    For three vertices consecutive in color order the three antipodal
    conditions add to 2 * (g(w) - g(u)) >= 3*diam - tri, and the V - 1
    color steps hold floor((V-1)/2) disjoint such two-step gaps.
    """
    gap = -((triameter(dist) - 3 * dist.diameter) // 2)
    return (dist.n - 1) // 2 * max(gap, 0)


def pattern_certificate(ordering: ColorOrdering,
                        dist: Distances) -> MinimalityCertificate:
    """Check the paper's sufficient-condition pattern for antipodal colorings.

    Requires k = diameter - 1.  For even n, every odd ordinal j <= n-3 must
    satisfy d(v_j, v_{j+1}) = diam and
    d(v_{j+1}, v_{j+2}) = d(v_j, v_{j+2}) + eps_{j+1} + eps_{j+2}, and the
    final pair must be diametral with eps_n = 0.  For odd n the same two
    clauses run over odd j <= n-2.  The pattern alone does not prove
    minimality; ``minimality_certificate`` adds the clause that does.
    """
    diam = dist.diameter
    if ordering.k != diam - 1:
        raise RadioError("certificate applies only to k = diameter - 1")
    n = ordering.n
    order = np.array(ordering.order, dtype=np.int64)
    eps = _int_array(ordering.epsilons)
    # 0-based positions i = j - 1 of the odd ordinals j up to top
    i = np.arange(0, n - 3 if n % 2 == 0 else n - 2, 2)
    pair = dist.dists(order[i], order[i + 1])
    lhs = dist.dists(order[i + 1], order[i + 2])
    rhs = dist.dists(order[i], order[i + 2]).astype(eps.dtype) + eps[i] + eps[i + 1]
    failures = []
    for at in np.flatnonzero((pair != diam) | (lhs != rhs)).tolist():
        j = at * 2 + 1
        if pair[at] != diam:
            failures.append((j, CLAUSE_DIAMETRAL, int(pair[at]), diam))
        if lhs[at] != rhs[at]:
            failures.append((j, CLAUSE_TWO_STEP, int(lhs[at]), int(rhs[at])))
    if n % 2 == 0 and n >= 2:
        observed = dist.d(ordering.order[n - 2], ordering.order[n - 1])
        if observed != diam:
            failures.append((n - 1, CLAUSE_FINAL_PAIR, observed, diam))
        if ordering.eps(n) != 0:
            failures.append((n, CLAUSE_FINAL_SLACK, ordering.eps(n), 0))
    status = "Certified" if not failures else "CriterionFailed"
    return MinimalityCertificate(status=status, failures=tuple(failures))


def minimality_certificate(ordering: ColorOrdering,
                           dist: Distances) -> MinimalityCertificate:
    """``pattern_certificate`` plus the clause that the span equals
    ``triameter_bound``.  Certified only when every clause holds, and the
    bound clause alone proves that a valid coloring has minimum span.

    The bound clause is reported as (n, "triameter-bound", span, bound).
    """
    pattern = pattern_certificate(ordering, dist)
    observed, bound = max(ordering.colors), triameter_bound(dist)
    if observed == bound:
        return pattern
    failures = pattern.failures + ((ordering.n, CLAUSE_LOWER_BOUND, observed, bound),)
    return MinimalityCertificate(status="CriterionFailed", failures=failures)
