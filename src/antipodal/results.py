"""The construction pipeline that GP(n,1) = C_2 x C_n and T(r,s) = C_r x C_s
share: the case type (``Case``), the ordering generator (``pair_chain``),
one construct step (``chain_construction``: ``chain_colors``, then
``checked_construction``) and one validate step (``pattern_report``, a BFS
scan by ``pattern_mismatches``), with their result types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .graphs import Distances, Graph, GraphError, all_pairs_distances, distances
from .radio import (ColorOrdering, Coloring, RadioError, _is_permutation, _ordering,
                    radio_violations, span)

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


@dataclass(frozen=True)
class Case:
    """A size's construction class: normalized (r, s) of C_r x C_s (GP(n,1)
    is C_2 x C_n) and label; ``swapped`` marks a torus whose (r, s) were
    exchanged, its colorings mapped back to the caller's orientation."""

    r: int
    s: int
    label: str
    swapped: bool = False


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


def pair_chain(dims, anchors, offsets, copies, shift) -> np.ndarray:
    """Vertex indices i*s + j on C_r x C_s (``dims``) of ``copies`` copies
    of the base ``anchors`` (i, j), copy c moved by c * ``shift``, each
    anchor followed by its partner at anchor + offset: ``offsets`` holds
    one row per anchor or one for all.  GP(n,1) is C_2 x C_n."""
    r, s = dims
    moved = np.asarray(anchors) + np.multiply.outer(np.arange(copies), shift)[:, None]
    points = np.stack((moved, moved + offsets), axis=2)  # (copy, anchor, pair member, axis)
    return ((points[..., 0] % r) * s + points[..., 1] % s).ravel()


def chain_colors(order, dist: Distances) -> tuple[int, ...]:
    """Colors by vertex of a pair chain A_1 B_1 ... A_M B_M, from the
    ordering alone: the next anchor's color grows by diam - d(A_m, A_{m+1}),
    and each partner B_m takes the latest color that every partner path
    B_m ... B_i allows before A_{i+1}, i >= m, but never one below its
    anchor's; B_M shares A_M's color."""
    order = np.asarray(order, dtype=np.int64)
    one = dist.dists(order[:-1], order[1:])  # d(v_j, v_{j+1})
    two = dist.dists(order[:-2], order[2:])  # d(v_j, v_{j+2})
    anchor_colors = np.append(0, np.cumsum(dist.diameter - two[0::2]))
    room = np.append(one[1::2] - two[0::2], 0)
    slide = np.append(0, np.cumsum(two[1::2] - two[0::2]))
    slack = np.maximum(np.minimum.accumulate((room + slide)[::-1])[::-1] - slide, 0)
    colors = np.zeros(len(order), dtype=np.int64)
    colors[order[0::2]] = anchor_colors
    colors[order[1::2]] = anchor_colors + slack
    return tuple(colors.tolist())


def checked_construction(graph: Graph, dist: Distances, order: np.ndarray,
                         coloring: Coloring, formula: FormulaResult) -> Construction:
    """The construction record, once it passes the construction check:
    ``order``, an integer array, is a permutation, ``coloring`` satisfies
    the radio condition, its span is the formula value and its colors
    never decrease along ``order``.  Raises ``ConstructionError`` at the
    first failure, in that order.

    The radio-condition kernel is called directly: a ``verify_radio_k`` call
    stands for one verification of a finished coloring, and the benchmark
    trace counts it as such.
    """
    where = "(" + ",".join(str(value) for value in graph.params.values()) + ")"
    if not _is_permutation(order, graph.n):
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


def chain_construction(graph: Graph, order: np.ndarray,
                       formula: FormulaResult) -> Construction:
    """The checked record of the pair chain ``order`` (an integer array),
    colored by ``chain_colors`` on ``graph``'s distances (k = diameter - 1)."""
    dist = distances(graph)
    coloring = Coloring(colors=chain_colors(order, dist), k=dist.diameter - 1)
    return checked_construction(graph, dist, order, coloring, formula)


_PATTERN_KINDS = ("consecutive-distance", "two-step-distance", "three-step-distance")


def pattern_mismatches(order, dists: Callable, tables) -> list[tuple[str, int, object, object]]:
    """Scan ``order`` against a clause set of expected distances.

    ``tables`` holds three periodic tables, for d(v_j, v_{j-1}),
    d(v_j, v_{j-2}) and d(v_j, v_{j-3}); the 1-based position j reads
    ``table[j % len(table)]``: an int for an exact claim, ("ge", bound)
    for a lower bound, or None for no claim.  ``dists`` maps two integer
    arrays of entries of ``order`` to their distances (``Distances.dists``);
    each kind's observed distances come from one call.  Returns every
    (kind, j, expected, observed) that breaks its claim, j being the later
    position, by kind and then by j.
    """
    vertices = np.array(order, dtype=np.int64)
    mismatches = []
    for back, (kind, table) in enumerate(zip(_PATTERN_KINDS, tables), start=1):
        observed_at = dists(vertices[back:], vertices[:-back]).tolist()
        for j, observed in enumerate(observed_at, start=back + 1):
            expected = table[j % len(table)]
            if expected is None or expected == observed:
                continue
            if isinstance(expected, tuple):
                if observed < expected[1]:
                    mismatches.append((kind, j, f">={expected[1]}", observed))
            else:
                mismatches.append((kind, j, expected, observed))
    return mismatches


def pattern_report(construction: Construction, clause_sets) -> PatternReport:
    """One BFS scan of the construction's ordering against each (pattern,
    tables) of ``clause_sets`` in turn: the first that holds, else the
    last's mismatches."""
    dist = all_pairs_distances(construction.graph)
    for pattern, tables in clause_sets:
        mismatches = pattern_mismatches(construction.ordering.order, dist.dists, tables)
        if not mismatches:
            break
    return PatternReport(ok=not mismatches, pattern=pattern, mismatches=tuple(mismatches))
