import time
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from antipodal.graphs import CycleProductDistances, all_pairs_distances, distances, make_torus
from antipodal.radio import (Coloring, ordering_from_sequence,
                             pattern_certificate, span,
                             span_identity_residual, triameter, verify_radio_k)
from antipodal.results import (EXACT, LOWER_BOUND, ConstructionError, chain_colors,
                               pattern_mismatches)
from antipodal.torus import (_FROZEN_CHAINS, L00, L10, L12, L20, L22H, L22M, L30, L32,
                             LODD, TorusError, _normalized_ordering, _published_checks,
                             torus_ac_formula, torus_antipodal_coloring, torus_case,
                             torus_construction, torus_ordering, validate_torus_ordering)

from conftest import reference_chain_colors, reference_normalized_ordering, reference_triameter

# one representative per construction class, plus every repaired size
REPRESENTATIVES = [(4, 4), (8, 4), (5, 4), (5, 8), (6, 4), (3, 4), (7, 8),
                   (7, 6), (11, 6), (3, 10), (6, 6), (10, 10), (6, 10),
                   (10, 6), (5, 10), (9, 6), (3, 6), (5, 6), (3, 8), (4, 5),
                   (3, 12), (5, 40)]


def test_case_classification():
    assert torus_case(4, 4).label == L00 and not torus_case(4, 4).swapped
    c45 = torus_case(4, 5)
    assert (c45.r, c45.s, c45.label, c45.swapped) == (5, 4, L10, True)
    assert torus_case(3, 3).label == LODD
    assert torus_case(6, 4).label == L20
    assert torus_case(3, 4).label == L30
    assert torus_case(7, 6).label == L32
    assert torus_case(5, 6).label == L12
    assert torus_case(6, 6).label == L22H
    assert torus_case(10, 10).label == L22H
    c106 = torus_case(10, 6)
    assert (c106.r, c106.s, c106.label, c106.swapped) == (6, 10, L22M, True)
    c48 = torus_case(4, 8)
    assert (c48.r, c48.s, c48.swapped) == (8, 4, True)


def test_formula_examples():
    assert torus_ac_formula(4, 4).value == 17
    r56 = torus_ac_formula(5, 6)
    assert (r56.value, r56.status) == (42, EXACT)
    r35 = torus_ac_formula(3, 5)
    assert (r35.value, r35.status) == (7, LOWER_BOUND)
    assert torus_ac_formula(10, 10).value == 245
    assert torus_ac_formula(7, 6).value == 60
    assert torus_ac_formula(3, 3).value == 0


def test_formula_2_0_discrepancy():
    r64 = torus_ac_formula(6, 4)
    assert r64.value == 33 and r64.status == EXACT
    assert r64.printed_value == Fraction(65, 2)
    assert r64.discrepancy and "non-integral" in r64.discrepancy
    # the published expression sits exactly one half below for the whole class
    for r in (6, 10):
        for s in (4, 8, 12):
            res = torus_ac_formula(r, s)
            assert Fraction(res.value) - res.printed_value == Fraction(1, 2)


def test_formula_is_orientation_invariant():
    for r, s in [(4, 6), (6, 10), (5, 4), (3, 6)]:
        assert torus_ac_formula(r, s).value == torus_ac_formula(s, r).value


def test_ordering_t44_first_pair_diametral():
    order = torus_ordering(4, 4)
    assert sorted(order) == list(range(16))
    dist = all_pairs_distances(make_torus(4, 4))
    assert dist.d(order[0], order[1]) == 4


def test_ordering_t54_consecutive_distances():
    order = torus_ordering(5, 4)
    dist = all_pairs_distances(make_torus(5, 4))
    for j in range(1, 20):
        observed = dist.d(order[j - 1], order[j])
        assert observed == (4 if j % 2 == 1 else 3), j


def test_ordering_mixed_22_exception_positions():
    r, s = 6, 10
    order = torus_ordering(r, s)
    dist = all_pairs_distances(make_torus(r, s))
    exceptions = []
    for m in range(1, r * s // 2):
        observed = dist.d(order[2 * m], order[2 * m - 1])
        if observed == (r + 2) // 4 + (s + 2) // 4:
            exceptions.append(m)
        else:
            assert observed == (r + 2) // 4 + (s - 2) // 4, m
    assert exceptions == [s // 2 * t for t in range(1, r)]


def test_odd_rs_has_no_construction():
    with pytest.raises(TorusError):
        torus_antipodal_coloring(3, 5)
    with pytest.raises(TorusError):
        torus_ordering(5, 5)


@pytest.mark.parametrize("r,s", REPRESENTATIVES)
def test_construction_verifies_certifies_and_matches_formula(r, s):
    graph = make_torus(r, s)
    dist = all_pairs_distances(graph)
    coloring = torus_antipodal_coloring(r, s)
    formula = torus_ac_formula(r, s)
    assert coloring.k == dist.diameter - 1
    assert verify_radio_k(graph, dist, coloring).valid
    assert span(coloring) == formula.value
    ordering = ordering_from_sequence(coloring, dist, torus_ordering(r, s))
    assert pattern_certificate(ordering, dist).certified
    assert span_identity_residual(ordering, dist) == 0


@pytest.mark.parametrize("r,s", [(4, 4), (3, 4), (5, 6), (6, 10), (3, 8)])
def test_validate_ordering(r, s):
    report = validate_torus_ordering(r, s)
    assert report.ok, report.mismatches[:4]


def test_validate_reports_published_vs_repaired():
    assert "published" in validate_torus_ordering(4, 4).pattern
    assert "published" in validate_torus_ordering(9, 6).pattern
    assert "repaired" in validate_torus_ordering(5, 6).pattern
    assert "repaired" in validate_torus_ordering(3, 8).pattern


def test_validate_full_range_and_rule_set_census():
    # every even-rs size up to 12 validates in both orientations, with the
    # same rule set; only the four sizes where the published clause sets
    # are unsatisfiable fall back to the chain rules
    repaired = set()
    seen = set()
    for r in range(3, 13):
        for s in range(3, 13):
            if (r * s) % 2 == 1:
                continue
            case = torus_case(r, s)
            if (case.r, case.s) in seen:
                continue
            seen.add((case.r, case.s))
            report = validate_torus_ordering(r, s)
            assert report.ok, (r, s, report.mismatches[:3])
            swapped = validate_torus_ordering(s, r)
            assert swapped.ok, (s, r, swapped.mismatches[:3])
            assert swapped.pattern == report.pattern, (r, s)
            if "repaired" in report.pattern:
                repaired.add((case.r, case.s))
    assert repaired == {(3, 6), (5, 6), (3, 8), (3, 12)}


def _misses_published(r, s, order):
    """Whether ``order`` breaks the published clause set of normalized (r, s)."""
    checks = _published_checks(torus_case(r, s).label, r, s)
    return bool(pattern_mismatches(order, CycleProductDistances(r, s).dists, checks))


def test_size_rule_census():
    # The builders pick their ordering by size alone; this is the census that
    # backs that rule.  Every other built size meets its class's published
    # clause set, and the sizes without a construction are all known.
    missed, raised, built = set(), 0, 0
    seen = set()
    for r in range(3, 41):
        for s in range(3, 41):
            if (r * s) % 2 == 1:
                continue
            case = torus_case(r, s)
            if (case.r, case.s) in seen:
                continue
            seen.add((case.r, case.s))
            try:
                order = torus_ordering(case.r, case.s)
            except ConstructionError:
                raised += 1
                continue
            built += 1
            if _misses_published(case.r, case.s, order):
                missed.add((case.r, case.s))
    assert missed == {(3, 6), (3, 8), (3, 12), (3, 14), (5, 6)}
    assert (raised, built) == (83, 484)


def test_published_tables_claim_every_position():
    # A published clause is never silently dropped (None) or weakened to a
    # bound: ("ge", b) sits only at odd entries of the three-step table.
    seen = set()
    for r in range(3, 41):
        for s in range(3, 41):
            case = torus_case(r, s)
            if case.label == LODD or (case.r, case.s) in seen:
                continue
            seen.add((case.r, case.s))
            tables = _published_checks(case.label, case.r, case.s)
            for back, table in enumerate(tables, start=1):
                for p, entry in enumerate(table):
                    assert entry is not None, (case, back, p)
                    if isinstance(entry, tuple):
                        assert back == 3 and p % 2 == 1 and entry[0] == "ge", (case, p)
                    else:
                        assert isinstance(entry, int), (case, back, p)


def _ordering_outcome(build, case):
    """Vertex indices, or the error's type and text."""
    try:
        order = build(case)
    except (ConstructionError, TorusError) as error:
        return type(error).__name__, str(error)
    return [int(v) for v in order]


def test_generators_match_the_per_class_builders():
    # _blocks and _sweep reproduce the nine per-class loops they replaced:
    # the same vertices and error text at every normalized size, and colors
    # derived from the ordering alone equal the colors of the builders' own
    # per-pair deltas (class (3,0)'s alternate 1, 0); the sizes stored as
    # chains build exactly the stored order
    seen = set()
    for r in range(3, 61):
        for s in range(3, 61):
            case = torus_case(r, s)
            if (case.r, case.s) in seen:
                continue
            seen.add((case.r, case.s))
            got = _ordering_outcome(_normalized_ordering, case)
            if (case.r, case.s) in _FROZEN_CHAINS:
                assert got == list(_FROZEN_CHAINS[(case.r, case.s)]), (r, s)
                continue
            try:
                labels, deltas = reference_normalized_ordering(case)
            except (ConstructionError, TorusError) as error:
                assert got == (type(error).__name__, str(error)), (r, s)
                continue
            expected = [i * case.s + j for i, j in labels]
            assert got == expected, (r, s)
            dist = distances(make_torus(case.r, case.s))
            assert chain_colors(got, dist) == reference_chain_colors(
                expected, deltas, dist), (r, s)
    assert len(seen) == 2159


def test_r5_copy_shift_builds_large_sizes_fast():
    # V = 10^4: the r = 5 copy shift is read off the size, so the build is
    # linear in s
    started = time.monotonic()
    construction = torus_construction(5, 2000)
    assert time.monotonic() - started < 5.0
    assert torus_case(5, 2000).label == L10
    assert not _misses_published(5, 2000, construction.ordering.order)


def test_t34_clause_c_alternation():
    # two-step distances alternate between (r-3)/4 + s/4 and (r+1)/4 + s/4
    r, s = 3, 4
    order = torus_ordering(r, s)
    dist = all_pairs_distances(make_torus(r, s))
    lo, hi = (r - 3) // 4 + s // 4, (r + 1) // 4 + s // 4
    for j in range(3, r * s + 1):
        observed = dist.d(order[j - 1], order[j - 3])
        expected = lo if j % 4 in (2, 3) else hi
        assert observed == expected, j


def test_t56_clause_d_even_positions():
    r, s = 5, 6
    order = torus_ordering(r, s)
    dist = all_pairs_distances(make_torus(r, s))
    # repaired size: the even three-step distances still come out at the
    # published (r-1)/4 + (s+2)/4 on non-boundary steps of the zigzag
    value = (r - 1) // 4 + (s + 2) // 4
    observed = [dist.d(order[j - 1], order[j - 4]) for j in range(4, 31, 2)]
    assert value in observed


def test_triameter_examples():
    assert triameter(CycleProductDistances(3, 3)) == 6
    assert triameter(CycleProductDistances(3, 4)) == 7


def test_triameter_attained_on_t33():
    dist = all_pairs_distances(make_torus(3, 3))
    g = make_torus(3, 3)
    u, v, w = g.index_of[(0, 0)], g.index_of[(1, 1)], g.index_of[(2, 2)]
    assert dist.d(u, v) + dist.d(v, w) + dist.d(w, u) == 6


def test_triameter_bound_exhaustive_small():
    for r in range(3, 10):
        for s in range(3, 10):
            assert triameter(CycleProductDistances(r, s)) == reference_triameter(r, s) == r + s, (r, s)


def test_gcd_side_conditions():
    for r in range(4, 201, 4):
        assert gcd(r // 2 + 1, r) == 1
    for r in range(6, 201, 4):
        assert gcd((r - 2) // 2, r) == 2
    for r in range(7, 201, 4):
        assert gcd((r + 1) // 4, r) == 1
    for s in range(6, 201, 4):
        assert gcd((s - 2) // 4, s) in (1, 2)


# A valid span-61 antipodal coloring of T(3,12), indexed like make_torus(3, 12),
# found by simulated annealing; the pattern certificate rejects every color
# order of it.  It is not the stored chain.
T312_SPAN_61 = (54, 25, 11, 43, 29, 0, 61, 39, 17, 50, 35, 7, 61, 39, 4, 50, 22,
                14, 54, 32, 10, 43, 28, 0, 47, 32, 18, 57, 36, 7, 46, 25, 3, 58,
                21, 14)


def test_t312_certified_span_override():
    # No pair chain passing the pattern certificate reaches the published 60
    # at (3,12) (tests/span_check.py rules it out); the library emits a
    # stored chain of span 61 that passes it and documents the conflict.
    result = torus_ac_formula(3, 12)
    assert result.value == 61
    assert result.status == "UpperBound"
    assert result.printed_value == Fraction(60)
    assert result.discrepancy and "pattern certificate" in result.discrepancy
    coloring = torus_antipodal_coloring(3, 12)
    assert span(coloring) == 61
    graph = make_torus(3, 12)
    dist = all_pairs_distances(graph)
    emitted = ordering_from_sequence(coloring, dist, torus_ordering(3, 12))
    assert pattern_certificate(emitted, dist).certified
    # a second valid span-61 coloring that no color order certifies: the
    # pattern is not the only way to reach 61
    other = Coloring(T312_SPAN_61, dist.diameter - 1)
    assert verify_radio_k(graph, dist, other).valid
    assert span(other) == 61 == span(coloring)
    ties = [[v for v in range(graph.n) if other.colors[v] == c]
            for c in sorted(set(other.colors))]
    for choice in product(*(permutations(group) for group in ties)):
        order = [v for group in choice for v in group]
        assert not pattern_certificate(
            ordering_from_sequence(other, dist, order), dist).certified


def test_odd_lower_bound_below_exact_for_t33():
    # ac(T_3,3) = 2 by the exact solver; the published bound gives 0
    assert torus_ac_formula(3, 3).value == 0


def test_coloring_min_color_zero():
    for r, s in [(4, 4), (3, 6), (5, 6), (6, 4)]:
        assert min(torus_antipodal_coloring(r, s).colors) == 0
