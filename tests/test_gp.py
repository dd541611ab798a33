from math import gcd

import pytest

from antipodal import gp
from antipodal.cli import main
from antipodal.graphs import all_pairs_distances, make_gp
from antipodal.radio import (minimality_certificate, pattern_certificate, radio_violations,
                             span, verify_radio_k)
from antipodal.gp import (CASE_4T, CASE_4T1, CASE_4T2_EVEN, CASE_4T2_ODD,
                          CASE_4T3, gp_ac_formula, gp_antipodal_coloring,
                          gp_case, gp_construction, gp_ordering,
                          validate_gp_ordering)
from antipodal.results import EXACT, UPPER_BOUND, ConstructionError, TorusError

from conftest import reference_gp_colors, reference_gp_ordering, reference_matrix_triameter

EXPECTED_SPANS = {3: 2, 4: 6, 5: 8, 6: 15, 7: 12, 8: 21, 9: 24, 10: 27,
                  11: 30, 12: 44, 13: 48, 14: 65, 15: 56, 16: 75, 17: 80,
                  18: 85, 19: 90, 20: 114, 21: 120, 22: 147, 23: 132, 24: 161}


def test_case_labels():
    assert gp_case(8).label == CASE_4T
    assert gp_case(9).label == CASE_4T1
    assert gp_case(6).label == CASE_4T2_ODD
    assert gp_case(10).label == CASE_4T2_EVEN
    assert gp_case(7).label == CASE_4T3


def test_formula_examples():
    assert gp_ac_formula(8) == gp_ac_formula(8)
    r8 = gp_ac_formula(8)
    assert (r8.value, r8.status) == (21, EXACT)
    r3 = gp_ac_formula(3)
    assert (r3.value, r3.status) == (2, EXACT)
    r10 = gp_ac_formula(10)
    assert (r10.value, r10.status, r10.printed_value) == (27, UPPER_BOUND, 36)
    r18 = gp_ac_formula(18)
    assert (r18.value, r18.status, r18.printed_value) == (85, UPPER_BOUND, 102)


@pytest.mark.parametrize("n", sorted(EXPECTED_SPANS))
def test_construction_verifies_and_matches_formula(n):
    graph, dist, ordering, coloring, formula = gp_construction(n)
    assert coloring.k == dist.diameter - 1
    assert verify_radio_k(graph, dist, coloring).valid
    assert span(coloring) == formula.value == EXPECTED_SPANS[n]
    assert pattern_certificate(ordering, dist).certified
    # the pattern alone does not prove minimality, so n = 2 (mod 8) stays
    # an upper bound below the published value; its span does meet the
    # triameter bound, which the minimality certificate checks
    if n % 8 == 2:
        assert (formula.status, formula.printed_value) == (UPPER_BOUND, (n * n + 5 * n - 6) // 4)
        assert minimality_certificate(ordering, dist).certified
    else:
        assert (formula.status, formula.printed_value) == (EXACT, None)


def test_construction_check_rejects_a_broken_pair(monkeypatch, capsys):
    # swapping pair 0's partner with pair 1's anchor puts two non-antipodal
    # vertices in one pair, so they share a color and break the radio
    # condition; the check names the offending vertices by their
    # ("x", i) / ("y", i) labels
    ordering = gp.gp_ordering

    def broken(n):
        seq = ordering(n)
        seq[1], seq[2] = seq[2], seq[1]
        return seq

    monkeypatch.setattr(gp, "gp_ordering", broken)
    with pytest.raises(ConstructionError, match=r"antipodal condition fails between "
                       r"\('[xy]', \d+\) and \('[xy]', \d+\) \(color gap \d+ < \d+\) for \(8\)") as info:
        gp_construction(8)
    # a failed GP construction is not reported as a torus error
    assert not isinstance(info.value, TorusError)
    # validate-ordering checks the emitted construction, so it fails as gen does
    for command in ("gen", "validate-ordering"):
        assert main([command, "--family", "gp", "--n", "8"]) == 2
        assert "antipodal condition fails" in capsys.readouterr().err


def test_ordering_is_permutation_3_to_24():
    for n in range(3, 25):
        seq = gp_ordering(n)
        assert sorted(seq.tolist()) == list(range(2 * n)), n


@pytest.mark.parametrize("n,expected", [(8, (5, 3)), (5, (3, 2)), (7, (4, 2)),
                                        (14, (8, 5)), (10, (6, 3))])
def test_consecutive_distance_alternation(n, expected):
    graph = make_gp(n)
    dist = all_pairs_distances(graph)
    seq = gp_ordering(n)
    long_d, short_d = expected
    for j in range(1, 2 * n):
        observed = dist.d(seq[j - 1], seq[j])
        assert observed == (long_d if j % 2 == 1 else short_d), (n, j)


@pytest.mark.parametrize("n", [9, 12, 14])
def test_validate_ordering_examples(n):
    report = validate_gp_ordering(n)
    assert report.ok, report.mismatches[:4]


def test_validate_ordering_full_range():
    for n in range(3, 25):
        assert validate_gp_ordering(n).ok, n


def test_ordering_matches_the_per_position_subscripts():
    # pair_chain's anchors, copies and shifts reproduce the per-position
    # subscript formulas, every residue class, also at V = 2 * 10^4
    for n in [*range(3, 401), *range(10000, 10008)]:
        assert gp_ordering(n).tolist() == reference_gp_ordering(n), n


def test_step_coprimality_up_to_200():
    # the sweep covers both cycles: every vertex appears exactly once
    for n in range(3, 201):
        assert sorted(gp_ordering(n).tolist()) == list(range(2 * n)), n
    # spot checks of the published coprimality side conditions
    for n in range(5, 201, 4):
        assert gcd((n - 1) // 4, n) == 1
    for n in range(6, 201, 8):
        assert gcd((n - 2) // 4, n) == 1
    for n in range(10, 201, 8):
        assert gcd((n + 2) // 4, n) == 1
    for n in range(3, 201, 4):
        assert gcd((n + 1) // 4, n) == 1 or n == 3  # (3+1)/4 = 1, coprime anyway


def _antipodal_partners(dist, v):
    return [w for w in range(dist.n) if w != v and dist.d(v, w) == dist.diameter]


def test_partner_counts_even_and_odd():
    for n in range(3, 21):
        dist = all_pairs_distances(make_gp(n))
        expected = 1 if n % 2 == 0 else 2
        for v in range(2 * n):
            assert len(_antipodal_partners(dist, v)) == expected, (n, v)


def test_even_n_geodesic_additivity():
    for n in range(4, 21, 2):
        dist = all_pairs_distances(make_gp(n))
        d = dist.diameter
        for v in range(2 * n):
            for vp in _antipodal_partners(dist, v):
                for w in range(2 * n):
                    assert dist.d(v, w) + dist.d(w, vp) == d, (n, v, w)


def test_odd_n_geodesic_alternative():
    for n in range(3, 20, 2):
        dist = all_pairs_distances(make_gp(n))
        for u in range(2 * n):
            partners = _antipodal_partners(dist, u)
            assert len(partners) == 2
            vp, vq = partners
            for w in range(2 * n):
                ok1 = dist.d(u, vp) == dist.d(u, w) + dist.d(w, vp)
                ok2 = dist.d(u, vq) == dist.d(u, w) + dist.d(w, vq)
                assert ok1 or ok2, (n, u, w)


def test_upper_bound_case_reports_printed_value():
    for n in (10, 18, 26):
        formula = gp_construction(n).formula
        assert (formula.value, formula.status) == ((n - 1) * (n + 2) // 4, UPPER_BOUND)
        assert formula.printed_value == (n * n + 5 * n - 6) // 4
        assert formula.discrepancy == (
            f"published closed form gives {formula.printed_value}; the pair-chain "
            f"construction attains {formula.value}")


def test_coloring_min_color_zero():
    for n in (3, 8, 10, 13):
        assert min(gp_antipodal_coloring(n).colors) == 0


def test_pair_chain_matches_published_increments_off_2_mod_8():
    for n in range(3, 301):
        if n % 8 != 2:
            assert gp_construction(n).coloring.colors == reference_gp_colors(n), n


def test_pair_chain_census_2_mod_8():
    for n in range(10, 1003, 8):
        graph, dist, _, coloring, formula = gp_construction(n)
        # triameter bound floor((V - 1)/2) * ceil((3 diam - tri)/2), tri = n + 2
        bound = (graph.n - 1) // 2 * -((n + 2 - 3 * dist.diameter) // 2)
        assert span(coloring) == formula.value == (n - 1) * (n + 2) // 4 == bound, n
        assert not radio_violations(coloring.colors, coloring.k, dist), n
        if n <= 66:
            bfs = all_pairs_distances(graph)
            assert not radio_violations(coloring.colors, coloring.k, bfs), n
            if n <= 18:
                assert reference_matrix_triameter(bfs.dist) == n + 2
