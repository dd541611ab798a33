"""Antipodal colorings of the generalized Petersen graph GP(n,1).

Classifies n by its residue class (``gp_case``), and emits per class an
explicit vertex ordering whose odd/even consecutive distances alternate
between the diameter and a short constant, plus the closed-form span.
The shared steps of ``results`` do the rest: ``chain_construction`` colors
the ordering (k = diameter - 1) and checks it before it is returned, and
``pattern_report`` scans the emitted ordering on BFS distances against
the class's clause set.

For n = 4t+2 with t even the pair chain spans (n-1)(n+2)/4, below the
published (n^2+5n-6)/4.  That equals the triameter bound
floor((V-1)/2) * ceil((3*diam - tri)/2) with tri = n + 2, but the library
proves no lower bound yet, so the class is reported as an upper bound with
the published value alongside.  Every other class reproduces the published
span and is reported exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import GraphError, make_gp
from .radio import Coloring
from .results import (EXACT, UPPER_BOUND, Case, Construction, FormulaResult, PatternReport,
                      chain_construction, pair_chain, pattern_report)

CASE_4T = "4t"
CASE_4T1 = "4t+1"
CASE_4T2_ODD = "4t+2(t odd)"
CASE_4T2_EVEN = "4t+2(t even)"
CASE_4T3 = "4t+3"


def gp_case(n: int) -> Case:
    """GP(n,1) as C_2 x C_n, with the residue class of n that selects the
    construction."""
    if n < 3:
        raise GraphError("GP(n,1) needs n >= 3")
    m = n % 4
    if m == 0:
        return Case(2, n, CASE_4T)
    if m == 1:
        return Case(2, n, CASE_4T1)
    if m == 3:
        return Case(2, n, CASE_4T3)
    return Case(2, n, CASE_4T2_ODD if (n - 2) // 4 % 2 == 1 else CASE_4T2_EVEN)


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


def gp_ordering(n: int) -> np.ndarray:
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
    return pair_chain((2, n), anchors, (1, n // 2), copies, shift)


def gp_antipodal_coloring(n: int) -> Coloring:
    """Antipodal coloring (k = diameter - 1) of GP(n,1) (``gp_construction``)."""
    return gp_construction(n).coloring


def gp_construction(n: int) -> Construction:
    """Graph, distances, construction ordering, coloring and formula: the
    chain of n antipodal pairs of ``gp_ordering``, each pair sharing a
    color, through the shared construct step."""
    return chain_construction(make_gp(n), gp_ordering(n), None, gp_ac_formula(n))


def validate_gp_ordering(n: int) -> PatternReport:
    """Scan the emitted ordering's distance pattern on BFS distances.

    Consecutive distances alternate between the diameter (each
    (v_{2j-1}, v_{2j}) is antipodal) and the case's short constant; two-step
    distances equal the case's subscript step, or for n = 4t alternate
    between n/4 and at least n/4.
    """
    case = gp_case(n)
    construction = gp_construction(n)
    diam = construction.dist.diameter
    short = _SHORT_DISTANCE[case.label](n)
    two = (("ge", n // 4), n // 4) if case.label == CASE_4T else (_STEP[case.label](n),)
    tables = ((diam, short), two, (None,))
    pattern = (f"gp case {case.label}: consecutive distances alternate "
               f"{diam} and {short}")
    return pattern_report(construction, [(pattern, tables)])
