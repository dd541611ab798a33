"""Antipodal colorings of toroidal grids T(r,s) = C_r x C_s.

For even rs every residue pair (r mod 4, s mod 4), after an orientation
swap, falls into one of seven construction classes (``torus_case``).  Each
class emits a vertex ordering made of rs/2 consecutive antipodal pairs; the
construct step that GP(n,1) shares (``results.chain_construction``) colors
it by the pair-chain rule g(A_{m+1}) = g(A_m) + diam - d(A_m, A_{m+1}).
That yields a valid antipodal coloring whose span telescopes to
(rs/2 - 1)*diam - sum_m d(A_m, A_{m+1}) and whose ordering passes the
pattern certificate.  For odd rs only a lower bound is available.

Each normalized size picks its ordering by a fixed rule, with no trial
candidates and no search, from one of two front ends to the pair-chain
generator that GP(n,1) shares (``results.pair_chain``):

- ``_blocks(r, s, rows, shift)`` builds a base block of pairs and its
  copies j < s/4, each moved by j * shift.  In each row of the block the
  anchors step along the first coordinate, and every pair has a fixed
  partner offset and delta.
- ``_sweep(r, s, outer, inner, u, v, w, off)`` places, for q < outer and
  p < inner, an anchor at q*u + p*v (plus w when p is odd) and its partner
  at anchor + off.

The classes, as parameters of those two (a = (r+1)/4 for (3,2) and
(r-1)/4 for (1,2)):

- (0,0): one row of r anchors with step (r+2)/2, pairs at (0,0) and
  (3r/4, 3s/4), offset (r/2, s/2), shift (1,1);
- (2,0): two rows of r/2 anchors, steps (r-2)/2 and (r+2)/2, offset
  (r/2, s/2), shift (1,1);
- (1,0): one row with step (r+1)/2, offset ((r-1)/2, s/2), shift (1,1),
  or (4, s/2 + 1) at r = 5, where (1,1) breaks the block seams;
- (3,0), when r >= 7 or s = 4: one row with step h = (r-1)/2, pairs
  ((0,0), (h, s/2), delta 1) and (((r-3)/4, s/4), (h+1, s/2), delta 0),
  shift (1,1);
- (3,2) and (1,2), s = 2 (mod 8): parity rows, a sweep with outer s/2,
  inner r, u = w = (0, (s-2)/4), v = (a, 0), off ((r+1)/2, s/2);
- (3,2) and (1,2), s = 6: a zigzag, a sweep with outer r, inner 3,
  u = (3a-1, 0), v = (a, 1), w = 0, off ((r+1)/2, s/2); for (1,2) only
  when gcd(3a-1, r) = 1;
- (2,2): a column sweep with outer r, inner s/2, u = ((r-2)/4, 0) when
  r = 6 (mod 8) and ((r+2)/4, 0) otherwise, v = (0, (s+2)/4),
  w = ((r-2)/4, 0), off (r/2, s/2).

T(3,8), T(3,12) and T(3,14) use a pattern-certified pair chain stored as
data; every other size raises ``ConstructionError`` at once.  At T(3,12)
no such chain reaches the published span 60, so the stored chain has span
61 and the formula reports it as an upper bound
(``_CERTIFIED_SPAN_OVERRIDES``).  A census of every normalized size with
r, s <= 100 found that these rules emit the published per-class clause
set everywhere except T(3,6), T(5,6), T(3,8), T(3,12) and T(3,14),
whose literal formulas double-cover vertices or whose seam distances
degenerate.  Every construction passes the shared construction check
before it is returned, and fails loudly with ``ConstructionError`` rather
than emit a bad ordering; ``validate_torus_ordering`` hands the published
clause set, then the repaired pair-chain clause, to the shared validate
step (``results.pattern_report``).  Each clause set is three periodic
tables of expected distances (``_published_checks``), read at position j
as ``table[j % len(table)]``: the published lemmas fix them by j mod 2 or
j mod 4, and (2,2)-mixed by j mod s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .graphs import make_torus
from .radio import Coloring
from .results import (EXACT, LOWER_BOUND, UPPER_BOUND, Case, Construction,
                      ConstructionError, FormulaResult, PatternReport, TorusError,
                      chain_construction, pair_chain, pattern_report)

L00 = "(0,0)"
L10 = "(1,0)"
L20 = "(2,0)"
L30 = "(3,0)"
L32 = "(3,2)"
L12 = "(1,2)"
L22H = "(2,2)-homogeneous"
L22M = "(2,2)-mixed"
LODD = "odd-odd"


def torus_case(r: int, s: int) -> Case:
    """Classify (r, s), swapping the orientation where the class demands."""
    if r < 3 or s < 3:
        raise TorusError("torus needs r, s >= 3")
    if r % 2 == 1 and s % 2 == 1:
        return Case(r, s, LODD)
    for a, b, swapped in ((r, s, False), (s, r, True)):
        ra, rb = a % 4, b % 4
        if (ra, rb) == (0, 0):
            if a >= b:  # larger coordinate first keeps the copy seams sane
                return Case(a, b, L00, swapped)
        elif (ra, rb) == (1, 0):
            return Case(a, b, L10, swapped)
        elif (ra, rb) == (2, 0):
            return Case(a, b, L20, swapped)
        elif (ra, rb) == (3, 0):
            return Case(a, b, L30, swapped)
        elif (ra, rb) == (3, 2):
            return Case(a, b, L32, swapped)
        elif (ra, rb) == (1, 2):
            return Case(a, b, L12, swapped)
        elif (ra, rb) == (2, 2):
            if (a % 8, b % 8) in ((2, 2), (6, 6)):
                return Case(a, b, L22H, swapped)
            if a % 8 == 6 and b % 8 == 2:
                return Case(a, b, L22M, swapped)
    raise TorusError(f"unclassifiable pair ({r}, {s})")  # pragma: no cover


# ---------------------------------------------------------------------------
# ordering generators (normalized coordinate space)
# ---------------------------------------------------------------------------

def _blocks(r, s, rows, shift):
    """A base block of antipodal pairs, then its copies j = 1 .. s/4 - 1,
    each moved by j * ``shift``.

    Each row is (count, step, pairs).  Its i-th anchor point, i < count, is
    (i * step, 0), and each (anchor, offset, delta) in ``pairs`` puts a pair
    there: its anchor at that point + anchor, its partner at the anchor +
    offset.  Returns the ``pair_chain`` indices and the per-pair deltas.
    """
    anchors, offsets, deltas = [], [], []
    for count, step, pairs in rows:
        for i in range(count):
            for (x, y), offset, delta in pairs:
                anchors.append((x + i * step, y))
                offsets.append(offset)
                deltas.append(delta)
    return pair_chain((r, s), anchors, offsets, s // 4, shift), deltas * (s // 4)


def _sweep(r, s, outer, inner, u, v, w, off):
    """Pairs along an affine lattice walk, as ``pair_chain`` vertex indices:
    for q < ``outer`` and p < ``inner``, the anchor q*u + p*v (plus w when
    p is odd) and its partner at anchor + ``off``."""
    p = np.arange(inner)[:, None]
    return pair_chain((r, s), p * v + p % 2 * w, off, outer, u)


# ---------------------------------------------------------------------------
# published distance patterns, checked by the public validator
# ---------------------------------------------------------------------------

def _published_checks(label, r, s):
    """Expected d(v_j, v_{j-1}) / d(v_j, v_{j-2}) / d(v_j, v_{j-3}) values.

    Returns three periodic tables; the 1-based position j reads
    ``table[j % len(table)]``, an int for an exact claim or ("ge", bound)
    for an inequality.  Even steps are always the diameter (consecutive
    antipodal pairs).
    """
    diam = r // 2 + s // 2
    if label == L00:
        q = r // 4 + s // 4
        return ((diam, q + 1, diam, q), (q, q - 1, q - 1, q),
                (q, s // 2 + 1, q + 1, s // 2 + 1))
    if label in (L10, L32):
        b = (r + s + 3) // 4
        c = (r + s - 1) // 4
        return (diam, b), (c,), (c, ("ge", 1))
    if label == L20:
        b = (r + 2) // 4 + s // 4
        c = (r - 2) // 4 + s // 4
        return (diam, b), (c,), (b, ("ge", 1))
    if label == L30:
        b = (r + 1) // 4 + s // 4
        lo = (r - 3) // 4 + s // 4
        return (diam, b), (b, b, lo, lo), (b, ("ge", s // 2 - 1))
    if label == L12:
        b = (r + 3) // 4 + (s + 2) // 4
        c = (r - 1) // 4 + (s - 2) // 4
        d_even = (r - 1) // 4 + (s + 2) // 4
        return (diam, b), (c,), (d_even, ("ge", 2))
    b = (r + 2) // 4 + (s - 2) // 4
    c = (r - 2) // 4 + (s + 2) // 4
    if label == L22H:
        return (diam, b), (c,), (b, ("ge", 1))
    if label == L22M:
        # period s, p = j mod s: the pair step into p = 1 and the two- and
        # three-step distances that reach over it are the exceptions
        b_exc = (r + 2) // 4 + (s + 2) // 4
        c_exc = (r - 2) // 4 + (s - 2) // 4
        period = range(s)
        return (tuple(diam if p % 2 == 0 else b_exc if p == 1 else b for p in period),
                tuple(c_exc if p in (1, 2) else c for p in period),
                tuple(("ge", 1) if p % 2 == 1 else b_exc if p == 2 else b for p in period))
    raise TorusError(f"no pattern table for {label}")  # pragma: no cover


# ---------------------------------------------------------------------------
# certified pair chains (used where every published formula breaks)
# ---------------------------------------------------------------------------

# Sizes where no pair chain that passes the pattern certificate reaches the
# published closed form (an exhaustive enumeration of those chains, kept
# with the tests, rules it out).  The construction emits the stored chain
# of the listed span, the least such span, and the formula reports it as an
# upper bound with a discrepancy note.
_CERTIFIED_SPAN_OVERRIDES: dict[tuple[int, int], int] = {(3, 12): 61}

# The normalized sizes where no repaired ordering holds but a pair chain that
# passes the pattern certificate reaches the formula span: the vertex order
# into make_torus(r, s) and the per-pair color gaps.  Each is the first chain
# that the tests' exhaustive enumeration finds at that span.
_FROZEN_CHAINS: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {
    (3, 8): ((0, 12, 18, 6, 20, 8, 2, 14, 4, 16, 10, 22,
              1, 13, 3, 23, 9, 21, 11, 7, 17, 5, 19, 15),
             (0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0)),
    (3, 12): ((0, 18, 27, 9, 1, 19, 4, 34, 13, 31, 16, 10, 25, 7, 28, 22, 14, 32,
               11, 29, 2, 20, 35, 17, 26, 8, 23, 5, 33, 15, 24, 6, 21, 3, 12, 30),
              (0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0)),
    (3, 14): ((0, 21, 4, 25, 8, 15, 12, 19, 2, 23, 6, 27, 10, 31,
               35, 14, 18, 39, 22, 29, 26, 33, 16, 37, 20, 41, 3, 24,
               7, 28, 11, 32, 1, 36, 5, 40, 9, 30, 13, 34, 38, 17),
              (0,) * 21),
}


# ---------------------------------------------------------------------------
# builder dispatch
# ---------------------------------------------------------------------------

def _normalized_ordering(case: Case) -> tuple[np.ndarray, list | None]:
    """Ordering, as indices into make_torus(case.r, case.s), and per-pair
    deltas (None for all zero): each class as ``_blocks`` or ``_sweep``."""
    r, s, label = case.r, case.s, case.label
    if label == LODD:
        raise TorusError("no construction for odd rs; only a lower bound")
    half = (r // 2, s // 2)
    if label == L00:
        pairs = [((0, 0), half, 0), ((3 * r // 4, 3 * s // 4), half, 0)]
        return _blocks(r, s, [(r, (r + 2) // 2, pairs)], (1, 1))
    if label == L10:
        # at r = 5 the published (1,1) copy shift breaks the block seams
        off = ((r - 1) // 2, s // 2)
        pairs = [((0, 0), off, 0), (((3 * r + 1) // 4, 3 * s // 4), off, 0)]
        return _blocks(r, s, [(r, (r + 1) // 2, pairs)],
                       (4, s // 2 + 1) if r == 5 else (1, 1))
    if label == L20:
        rows = [(r // 2, (r - 2) // 2, [((0, 0), half, 0), (((r - 2) // 4, s // 4), half, 0)]),
                (r // 2, (r + 2) // 2, [((0, s // 2), half, 0),
                                        (((3 * r + 2) // 4, 3 * s // 4), half, 0)])]
        return _blocks(r, s, rows, (1, 1))
    # pair gaps alternate 1, 0, so every partner-side step is at least as long
    # as its anchor step, which the published ordering violates
    if label == L30 and (r >= 7 or s == 4):
        h = (r - 1) // 2
        pairs = [((0, 0), (h, s // 2), 1), (((r - 3) // 4, s // 4), (h + 1, s // 2), 0)]
        return _blocks(r, s, [(r, h, pairs)], (1, 1))
    if label in (L32, L12):
        a = (r + 1) // 4 if label == L32 else (r - 1) // 4
        off = ((r + 1) // 2, s // 2)
        if s % 8 == 2:
            # parity rows: (s-2)/4 is even, so the anchors of even and odd p
            # lie on rows of opposite parity
            b = (s - 2) // 4
            return _sweep(r, s, s // 2, r, (0, b), (a, 0), (0, b), off), None
        # the zigzag covers the torus when gcd(3a - 1, r) = 1, always so for (3,2)
        if s == 6 and gcd(3 * a - 1, r) == 1:
            return _sweep(r, s, r, 3, (3 * a - 1, 0), (a, 1), (0, 0), off), None
    if label in (L22H, L22M):
        c = (r - 2) // 4
        u = (c if r % 8 == 6 else (r + 2) // 4, 0)
        return _sweep(r, s, r, s // 2, u, (0, (s + 2) // 4), (c, 0), half), None
    if (r, s) in _FROZEN_CHAINS:
        order, deltas = _FROZEN_CHAINS[(r, s)]
        return np.array(order, dtype=np.int64), list(deltas)
    raise ConstructionError(f"no construction for ({r},{s})")


def torus_construction(r: int, s: int) -> Construction:
    """Graph, distances, ordering, antipodal coloring (k = diameter - 1) and
    formula of T(r,s) for even rs, in the caller's orientation, through the
    shared construct step."""
    case = torus_case(r, s)
    formula = torus_ac_formula(r, s)
    order, deltas = _normalized_ordering(case)
    if case.swapped:  # the normalized vertex (j, i) of C_s x C_r is the caller's (i, j)
        j, i = np.divmod(order, r)
        order = i * s + j
    return chain_construction(make_torus(r, s), order, deltas, formula)


def torus_ordering(r: int, s: int) -> list[int]:
    """Construction ordering v_1..v_rs as indices into make_torus(r, s)."""
    return list(torus_construction(r, s).ordering.order)


def torus_antipodal_coloring(r: int, s: int) -> Coloring:
    """Antipodal coloring of T(r,s) for even rs (``torus_construction``)."""
    return torus_construction(r, s).coloring


def torus_ac_formula(r: int, s: int) -> FormulaResult:
    """Closed-form antipodal span of T(r,s).

    Even rs: exact per class, except that the (2,0) class's published
    closed form is uniformly one half below the construction-derived
    integer (rs-2)(r+s+2)/8, which is what this returns (with a discrepancy
    note).  Odd rs: the ceiling lower bound.
    """
    case = torus_case(r, s)
    a, b = case.r, case.s
    if case.label == LODD:
        value = ((a + b - 3) // 4) * ((a * b - 1) // 2)  # ceil((a+b-6)/4) * (ab-1)/2
        return FormulaResult(value, LOWER_BOUND, LODD)
    num = {
        L00: a * a * b + a * b * b + 2 * a * b - 2 * a - 2 * b - 8,
        L10: a * a * b + a * b * b - a * b - 2 * a - 2 * b + 2,
        L32: a * a * b + a * b * b - a * b - 2 * a - 2 * b + 2,
        L30: a * a * b + a * b * b - a * b - 2 * a - 2 * b + 6,
        L22H: a * a * b + a * b * b - 2 * a - 2 * b,
        L22M: a * a * b + a * b * b + 6 * a - 2 * b - 8,
        L12: a * a * b + a * b * b + a * b - 2 * a - 2 * b - 2,
    }
    if case.label == L20:
        derived = (a * b - 2) * (a + b + 2) // 8
        printed = Fraction(a * a * b + a * b * b + 2 * a * b - 2 * a - 2 * b - 8, 8)
        note = (f"published closed form evaluates to {printed} (non-integral); "
                f"construction-derived value {derived} is authoritative")
        return FormulaResult(derived, EXACT, L20, printed_value=printed,
                             discrepancy=note)
    numerator = num[case.label]
    if numerator % 8 != 0:  # pragma: no cover - guarded by the class split
        raise TorusError(f"non-integral closed form for ({r},{s})")
    published = numerator // 8
    if (a, b) in _CERTIFIED_SPAN_OVERRIDES:
        derived = _CERTIFIED_SPAN_OVERRIDES[(a, b)]
        note = (f"published closed form gives {published}, but no pair chain "
                f"passing the pattern certificate reaches it at this size; the "
                f"emitted chain passes that certificate at span {derived}")
        return FormulaResult(derived, UPPER_BOUND, case.label,
                             printed_value=Fraction(published), discrepancy=note)
    return FormulaResult(published, EXACT, case.label)


def validate_torus_ordering(r: int, s: int) -> PatternReport:
    """Scan the emitted ordering's distance pattern on BFS distances.

    Sizes built from a published per-class formula satisfy that class's
    clause set.  On repaired sizes, where the published clause set is
    unsatisfiable, only the pair-chain clause is claimed: consecutive pairs
    are antipodal (the construction check has already covered the
    permutation, the colors and the span).
    """
    case = torus_case(r, s)
    construction = torus_construction(r, s)
    published = (f"torus class {case.label}: published clause set (a)-(d)",
                 _published_checks(case.label, case.r, case.s))
    repaired = (f"torus class {case.label}: repaired pair chain for ({case.r},{case.s}) "
                f"(published clause set unsatisfiable at this size)",
                ((construction.dist.diameter, None), (None,), (None,)))
    return pattern_report(construction, [published, repaired])
