"""Antipodal colorings of the generalized Petersen graph GP(n,1).

Emits, per residue class of n, an explicit vertex ordering whose odd/even
consecutive distances alternate between the diameter and a short constant,
the antipodal coloring (k = diameter - 1) that the shared pair-chain rule
``results.chain_colors`` gives it, and the closed-form span.  Every
construction passes ``results.checked_construction`` before it is
returned; ``validate_gp_ordering`` scans the emitted ordering on BFS
distances.

For n = 4t+2 with t even the pair chain spans (n-1)(n+2)/4, below the
published (n^2+5n-6)/4.  That equals the triameter bound
floor((V-1)/2) * ceil((3*diam - tri)/2) with tri = n + 2, but the library
proves no lower bound yet, so the class is reported as an upper bound with
the published value alongside.  Every other class reproduces the published
span and is reported exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import GraphError, all_pairs_distances, distances, make_gp
from .radio import Coloring
from .results import (EXACT, UPPER_BOUND, Construction, FormulaResult, PatternReport,
                      chain_colors, checked_construction, pair_chain, pattern_mismatches)

CASE_4T = "4t"
CASE_4T1 = "4t+1"
CASE_4T2_ODD = "4t+2(t odd)"
CASE_4T2_EVEN = "4t+2(t even)"
CASE_4T3 = "4t+3"


@dataclass(frozen=True)
class GpCase:
    """Residue class of n that selects the construction."""

    n: int
    label: str
    t: int | None  # (n - 2) // 4 when n = 4t + 2, else None


def gp_case(n: int) -> GpCase:
    if n < 3:
        raise GraphError("GP(n,1) needs n >= 3")
    m = n % 4
    if m == 0:
        return GpCase(n, CASE_4T, None)
    if m == 1:
        return GpCase(n, CASE_4T1, None)
    if m == 3:
        return GpCase(n, CASE_4T3, None)
    t = (n - 2) // 4
    return GpCase(n, CASE_4T2_ODD if t % 2 == 1 else CASE_4T2_EVEN, t)


def gp_ac_formula(n: int) -> FormulaResult:
    """Closed-form antipodal span per residue class of n.

    Exact for every class except n = 4t+2 with t even.  There the value is
    the pair chain's (n-1)(n+2)/4, reported as an upper bound, with the
    published (n^2+5n-6)/4 as ``printed_value``.
    """
    case = gp_case(n)
    if case.label == CASE_4T:
        return FormulaResult((n * n + 3 * n - 4) // 4, EXACT, case.label)
    if case.label == CASE_4T1:
        return FormulaResult((n * n + 2 * n - 3) // 4, EXACT, case.label)
    if case.label == CASE_4T3:
        return FormulaResult((n * n - 1) // 4, EXACT, case.label)
    published = (n * n + 5 * n - 6) // 4
    if case.label == CASE_4T2_ODD:
        return FormulaResult(published, EXACT, case.label)
    derived = (n - 1) * (n + 2) // 4
    note = (f"published closed form gives {published}; the pair-chain "
            f"construction attains {derived}")
    return FormulaResult(derived, UPPER_BOUND, case.label,
                         printed_value=Fraction(published), discrepancy=note)


# Outer-cycle subscript step between consecutive odd positions, by case.
_STEP = {
    CASE_4T1: lambda n: (n - 1) // 4,
    CASE_4T2_ODD: lambda n: (n - 2) // 4,
    CASE_4T2_EVEN: lambda n: (n + 2) // 4,
    CASE_4T3: lambda n: (n + 1) // 4,
}

# Short distance in the alternating consecutive-distance sequence, by case.
_SHORT_DISTANCE = {
    CASE_4T: lambda n: n // 4 + 1,
    CASE_4T1: lambda n: (n + 3) // 4,
    CASE_4T2_ODD: lambda n: (n + 2) // 4 + 1,
    CASE_4T2_EVEN: lambda n: (n + 2) // 4,
    CASE_4T3: lambda n: (n + 1) // 4,
}


def gp_ordering(n: int) -> list[int]:
    """Vertex sequence v_1..v_2n as indices into make_gp(n), a ``pair_chain``
    on C_2 x C_n: each (v_{2j+1}, v_{2j+2}) is an antipodal pair, a vertex
    and its partner at offset (1, n/2).  n = 4t copies the anchors
    (0, m*n/4 + 1), m < 4, n/4 times with shift (1, 1 + n/2), so every odd
    block starts on the inner cycle; the other classes copy the anchor
    (0, 1) with a modular step whose coprimality with n makes the sweep
    cover both cycles.
    """
    case = gp_case(n)
    if case.label == CASE_4T:
        anchors, copies, shift = [(0, m * (n // 4) + 1) for m in range(4)], n // 4, (1, 1 + n // 2)
    else:
        anchors, copies, shift = [(0, 1)], n, (0, _STEP[case.label](n))
    return pair_chain((2, n), anchors, (1, n // 2), copies, shift).tolist()


def gp_antipodal_coloring(n: int) -> Coloring:
    """Antipodal coloring (k = diameter - 1) of GP(n,1) (``gp_construction``)."""
    return gp_construction(n).coloring


def gp_construction(n: int) -> Construction:
    """Graph, distances, construction ordering, coloring and formula.

    The ordering is a chain of n antipodal pairs, colored by
    ``chain_colors``: each pair shares a color, and the next pair's color
    grows by diam - d(A_m, A_{m+1}) between consecutive anchors.  The span
    equals the closed-form value, and the construction check confirms it
    before the record is returned.
    """
    graph = make_gp(n)
    dist = distances(graph)
    seq = np.array(gp_ordering(n), dtype=np.int64)
    coloring = Coloring(colors=chain_colors(seq, None, dist), k=dist.diameter - 1)
    return checked_construction(graph, dist, seq, coloring, gp_ac_formula(n))


def validate_gp_ordering(n: int) -> PatternReport:
    """Scan the emitted ordering's distance pattern on BFS distances.

    Consecutive distances alternate between the diameter (each
    (v_{2j-1}, v_{2j}) is antipodal) and the case's short constant; two-step
    distances equal the case's subscript step, or for n = 4t alternate
    between n/4 and at least n/4.
    """
    case = gp_case(n)
    construction = gp_construction(n)
    dist = all_pairs_distances(construction.graph)
    diam = dist.diameter
    short = _SHORT_DISTANCE[case.label](n)
    if case.label == CASE_4T:
        q = n // 4
        two = lambda j: q if j % 2 == 1 else ("ge", q)
    else:
        step = _STEP[case.label](n)
        two = lambda j: step
    checks = (lambda j: diam if j % 2 == 0 else short, two, lambda j: None)
    mismatches = pattern_mismatches(construction.ordering.order, dist.dists, checks)
    pattern = (f"gp case {case.label}: consecutive distances alternate "
               f"{diam} and {short}")
    return PatternReport(ok=not mismatches, pattern=pattern,
                         mismatches=tuple(mismatches))
