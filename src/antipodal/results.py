"""Status-carrying result types shared by the construction modules, the
check every GP and torus construction passes before it is returned
(``checked_construction``), and the scan of an ordering's distance pattern
against a clause table (``pattern_mismatches``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .graphs import Distances, Graph, GraphError
from .radio import (ColorOrdering, Coloring, RadioError, _ordering, radio_violations,
                    span)

EXACT = "Exact"
UPPER_BOUND = "UpperBound"
LOWER_BOUND = "LowerBound"


@dataclass(frozen=True)
class FormulaResult:
    """A closed-form span value with its confidence status and case label.

    ``printed_value`` records a published closed form when it disagrees with
    the construction-derived value actually used; ``discrepancy`` carries the
    human-readable note.
    """

    value: int
    status: str  # Exact | UpperBound | LowerBound
    case_label: str
    printed_value: Fraction | None = None
    discrepancy: str | None = None


class TorusError(GraphError):
    """Raised for unsupported torus parameters, and for odd rs, where a
    torus has no construction."""


class ConstructionError(GraphError):
    """Raised when a construction of either family fails its own
    validation, or a size has no construction."""


class Construction(NamedTuple):
    """A family's construction, each part built once: the graph, its
    distances, the construction ordering, the coloring it induces and the
    span formula the coloring attains."""

    graph: Graph
    dist: Distances
    ordering: ColorOrdering
    coloring: Coloring
    formula: FormulaResult


@dataclass(frozen=True)
class PatternReport:
    """Outcome of re-deriving an ordering's distance pattern from scratch.

    ``mismatches`` lists (description, position, expected, observed); the
    report is ok iff the list is empty.  ``pattern`` names the rule set that
    was checked.
    """

    ok: bool
    pattern: str
    mismatches: tuple[tuple[str, int, object, object], ...]


def checked_construction(graph: Graph, dist: Distances, order,
                         coloring: Coloring, formula: FormulaResult) -> Construction:
    """The construction record, once it passes the construction check:
    ``order`` is a permutation, ``coloring`` satisfies the radio condition,
    its span is the formula value and its colors never decrease along
    ``order``.  Raises ``ConstructionError`` at the first failure, in that
    order.

    The radio-condition kernel is called directly: a ``verify_radio_k`` call
    stands for one verification of a finished coloring, and the benchmark
    trace counts it as such.
    """
    where = "(" + ",".join(str(value) for value in graph.params.values()) + ")"
    if sorted(order) != list(range(graph.n)):
        raise ConstructionError(f"ordering is not a permutation for {where}")
    violations = radio_violations(coloring.colors, coloring.k, dist)
    if violations:
        u, v, required, gap = violations[0]
        raise ConstructionError(
            f"antipodal condition fails between {graph.label_of(u)} and "
            f"{graph.label_of(v)} (color gap {gap} < {required}) for {where}")
    if span(coloring) != formula.value:
        raise ConstructionError(f"construction span {span(coloring)} != "
                                f"formula value {formula.value} for {where}")
    try:  # ``order`` passed the permutation check above, so it is not run again
        ordering = _ordering(coloring, dist, order)
    except RadioError:  # a permutation, so its colors decrease somewhere
        raise ConstructionError(
            f"colors not monotone along ordering for {where}") from None
    return Construction(graph, dist, ordering, coloring, formula)


_PATTERN_KINDS = ("consecutive-distance", "two-step-distance", "three-step-distance")


def pattern_mismatches(order, dists: Callable,
                       checks: tuple[Callable, Callable, Callable]
                       ) -> list[tuple[str, int, object, object]]:
    """Scan ``order`` against a clause table of expected distances.

    ``checks`` holds three callables of a 1-based position j, giving the
    expected d(v_j, v_{j-1}), d(v_j, v_{j-2}) and d(v_j, v_{j-3}): an int
    for an exact claim, ("ge", bound) for a lower bound, or None for no
    claim.  ``dists`` maps two integer arrays of entries of ``order`` to
    their distances (``Distances.dists``); each kind's observed distances
    come from one call.  Returns every (kind, j, expected, observed) that
    breaks its claim, j being the later position, by kind and then by j.
    """
    vertices = np.array(order, dtype=np.int64)
    mismatches = []
    for back, (kind, clause) in enumerate(zip(_PATTERN_KINDS, checks), start=1):
        positions = range(back + 1, len(order) + 1)
        observed_at = dists(vertices[back:], vertices[:-back]).tolist()
        for j, expected, observed in zip(positions, map(clause, positions), observed_at):
            if expected is None or expected == observed:
                continue
            if isinstance(expected, tuple):
                if observed < expected[1]:
                    mismatches.append((kind, j, f">={expected[1]}", observed))
            else:
                mismatches.append((kind, j, expected, observed))
    return mismatches
