"""Radio k-colorings: verification, spans, orderings and minimality certificates.

A radio k-coloring assigns non-negative integer colors so that every vertex
pair (u, v) satisfies |g(u) - g(v)| >= 1 + k - d(u, v).  The antipodal case
is k = d - 1.  Along any color-sorted vertex ordering the per-step slack
eps_j = g(v_j) - g(v_{j-1}) - (1 + k - d(v_j, v_{j-1})) is non-negative, and
the span telescopes to (n-1)(k+1) - sum d + sum eps.  The minimality
certificate checks the sufficient condition that consecutive odd-position
pairs are diametral and every two-step distance equals the shorter distance
plus the interleaved slacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Distances, Graph

CLAUSE_DIAMETRAL = "diametral-pair"
CLAUSE_TWO_STEP = "two-step-slack"
CLAUSE_FINAL_PAIR = "final-pair"
CLAUSE_FINAL_SLACK = "final-slack"


class RadioError(ValueError):
    """Raised for ill-formed colorings or mismatched parameters."""


@dataclass(frozen=True)
class Coloring:
    """Vertex-indexed non-negative colors for a fixed radio parameter k."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise RadioError("k must be >= 1")
        if any((not isinstance(c, int)) or c < 0 for c in self.colors):
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

    def color_at(self, position: int) -> int:
        """Color of the vertex at 1-based ordinal position."""
        return self.colors[self.order[position - 1]]

    def eps(self, position: int) -> int:
        """eps_j for 1-based ordinal position j in 2..n."""
        return self.epsilons[position - 2]


def _epsilons(order, colors, k, dist: Distances) -> tuple[int, ...]:
    eps = []
    for j in range(1, len(order)):
        u, v = order[j - 1], order[j]
        eps.append(colors[v] - colors[u] - (1 + k - dist.d(u, v)))
    return tuple(eps)


def ordering_from_sequence(coloring: Coloring, dist: Distances,
                           order) -> ColorOrdering:
    """Wrap an explicit color-non-decreasing vertex sequence.

    Rejects sequences that are not permutations or not sorted by color.
    Constructions certify against their own emitted sequence; equal-color
    ties may therefore sit in any order here.
    """
    order = tuple(order)
    if sorted(order) != list(range(coloring.n)):
        raise RadioError("order is not a permutation of the vertices")
    colors = coloring.colors
    for a, b in zip(order, order[1:]):
        if colors[a] > colors[b]:
            raise RadioError("order is not color-non-decreasing")
    return ColorOrdering(order=order, colors=colors, k=coloring.k,
                         epsilons=_epsilons(order, colors, coloring.k, dist))


def order_by_color(coloring: Coloring, dist: Distances) -> ColorOrdering:
    """Canonical ordering: stable sort by (color, vertex index)."""
    order = tuple(sorted(range(coloring.n), key=lambda v: (coloring.colors[v], v)))
    return ColorOrdering(order=order, colors=coloring.colors, k=coloring.k,
                         epsilons=_epsilons(order, coloring.colors, coloring.k, dist))


def radio_violations(colors, k: int,
                     dist: Distances) -> tuple[tuple[int, int, int, int], ...]:
    """Every vertex pair breaking |g(u) - g(v)| >= 1 + k - d(u, v), sorted,
    as (u, v, required gap, actual gap) with u < v.

    Walks the vertices in color order and, from each one, only the later
    vertices whose color gap is below k + 1: a pair with a larger gap can
    never violate the condition.
    """
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


def verify_radio_k(graph: Graph, dist: Distances, coloring: Coloring,
                   k: int | None = None) -> VerificationReport:
    """Check the radio condition on all vertex pairs (``radio_violations``)."""
    if k is None:
        k = coloring.k
    elif k != coloring.k:
        raise RadioError(f"coloring carries k={coloring.k}, called with k={k}")
    if coloring.n != graph.n:
        raise RadioError("coloring size does not match graph order")
    if not 1 <= k <= dist.diameter:
        raise RadioError("k out of range 1..diameter")
    violations = radio_violations(coloring.colors, k, dist)
    return VerificationReport(valid=not violations, violations=violations)


def span_identity_residual(ordering: ColorOrdering, dist: Distances,
                           k: int | None = None) -> int:
    """span - [(n-1)(k+1) - sum of step distances + sum of slacks].

    Zero for every valid radio k-coloring whose minimum color is 0; the
    telescoping leaves exactly the minimum color behind.
    """
    if k is None:
        k = ordering.k
    elif k != ordering.k:
        raise RadioError(f"ordering carries k={ordering.k}, called with k={k}")
    n = ordering.n
    dsum = sum(dist.d(ordering.order[j - 1], ordering.order[j]) for j in range(1, n))
    esum = sum(ordering.epsilons)
    return max(ordering.colors) - ((n - 1) * (k + 1) - dsum + esum)


@dataclass(frozen=True)
class MinimalityCertificate:
    status: str  # "Certified" | "CriterionFailed"
    failures: tuple[tuple[int, str, int, int], ...] = field(default=())
    """Each failure is (ordinal position j, clause, observed, required)."""

    @property
    def certified(self) -> bool:
        return self.status == "Certified"


def minimality_certificate(ordering: ColorOrdering,
                           dist: Distances) -> MinimalityCertificate:
    """Check the sufficient minimality condition for antipodal colorings.

    Requires k = diameter - 1.  For even n, every odd ordinal j <= n-3 must
    satisfy d(v_j, v_{j+1}) = diam and
    d(v_{j+1}, v_{j+2}) = d(v_j, v_{j+2}) + eps_{j+1} + eps_{j+2}, and the
    final pair must be diametral with eps_n = 0.  For odd n the same two
    clauses run over odd j <= n-2.
    """
    diam = dist.diameter
    if ordering.k != diam - 1:
        raise RadioError("certificate applies only to k = diameter - 1")
    n = ordering.n
    order = ordering.order

    def d_at(j1: int, j2: int) -> int:
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
    status = "Certified" if not failures else "CriterionFailed"
    return MinimalityCertificate(status=status, failures=tuple(failures))
