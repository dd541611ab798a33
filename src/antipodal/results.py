"""Status-carrying result types shared by the construction modules."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graphs import DistanceMatrix, Graph
from .radio import ColorOrdering, Coloring

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


class Construction(NamedTuple):
    """A family's construction, each part built once: the graph, its
    distances, the construction ordering, the coloring it induces and the
    span formula the coloring attains."""

    graph: Graph
    dist: DistanceMatrix
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
