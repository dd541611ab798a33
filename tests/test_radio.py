from itertools import combinations

import pytest

from antipodal.graphs import (CycleProductDistances, all_pairs_distances, distances,
                              make_cycle, make_gp, make_torus)
from antipodal.radio import (CLAUSE_LOWER_BOUND, CLAUSE_TWO_STEP, Coloring, RadioError,
                             minimality_certificate, order_by_color,
                             ordering_from_sequence, pattern_certificate, span,
                             span_identity_residual, triameter, triameter_bound,
                             verify_radio_k)
from antipodal.solver import SOLVED, exact_rc_k
from antipodal.gp import gp_construction, gp_ordering
from antipodal.torus import torus_antipodal_coloring, torus_ordering

from conftest import reference_gp_colors, reference_verify


@pytest.fixture(scope="module")
def c4():
    g = make_cycle(4)
    return g, all_pairs_distances(g)


def test_verify_valid_c4(c4):
    g, d = c4
    report = verify_radio_k(g, d, Coloring((0, 1, 0, 1), k=1))
    assert report.valid and report.violations == ()


def test_verify_all_zero_c4_has_four_adjacent_violations(c4):
    g, d = c4
    report = verify_radio_k(g, d, Coloring((0, 0, 0, 0), k=1))
    assert not report.valid
    assert len(report.violations) == 4
    assert all(req == 1 and act == 0 for (_, _, req, act) in report.violations)
    assert {(u, v) for (u, v, _, _) in report.violations} == set(g.edges())


def test_verify_gp8_construction():
    graph, dist, ordering, coloring, _ = gp_construction(8)
    assert verify_radio_k(graph, dist, coloring).valid


def test_verify_k_mismatch_and_size_mismatch(c4):
    g, d = c4
    with pytest.raises(RadioError):
        verify_radio_k(g, d, Coloring((0, 1, 0), k=1))
    with pytest.raises(RadioError):
        verify_radio_k(g, d, Coloring((0, 1, 0, 1), k=3))  # k > diameter


def test_verify_report_matches_reference(c4):
    g, d = c4
    for colors in [(0, 1, 0, 1), (0, 0, 0, 0), (0, 2, 1, 3), (5, 0, 2, 1)]:
        coloring = Coloring(colors, k=1)
        assert verify_radio_k(g, d, coloring) == reference_verify(g, d, coloring)


def test_span_examples():
    assert span(Coloring((0, 1, 0, 1), k=1)) == 1
    _, _, _, coloring8, _ = gp_construction(8)
    assert span(coloring8) == 21
    assert span(torus_antipodal_coloring(4, 4)) == 17


def test_order_by_color_tie_break(c4):
    g, d = c4
    ordering = order_by_color(Coloring((3, 0, 3, 1), k=1), d)
    assert ordering.order == (1, 3, 0, 2)


def test_gp8_construction_epsilons():
    _, dist, ordering, _, _ = gp_construction(8)
    n = ordering.n
    for j in range(2, n + 1):
        expected = 1 if j % 2 == 1 else 0
        assert ordering.eps(j) == expected, j


def test_t44_construction_epsilons():
    g = make_torus(4, 4)
    dist = all_pairs_distances(g)
    coloring = torus_antipodal_coloring(4, 4)
    ordering = ordering_from_sequence(coloring, dist, torus_ordering(4, 4))
    bumps = [j for j in range(2, 17) if ordering.eps(j) != 0]
    assert bumps == [5, 9, 13]
    assert all(ordering.eps(j) == 2 for j in bumps)


def test_span_identity_residual_zero(c4):
    g, d = c4
    coloring = Coloring((0, 1, 0, 1), k=1)
    assert span_identity_residual(order_by_color(coloring, d), d) == 0


def test_span_identity_residual_gp5():
    graph, dist, ordering, coloring, _ = gp_construction(5)
    assert coloring.k == 2
    assert span_identity_residual(ordering, dist) == 0
    assert span_identity_residual(order_by_color(coloring, dist), dist) == 0


def test_residual_equals_min_color_offset(c4):
    # shifting every color up leaves exactly the minimum color as residual
    g, d = c4
    shifted = Coloring((2, 3, 2, 3), k=1)
    assert span_identity_residual(order_by_color(shifted, d), d) == 2


def test_certificate_examples_gp():
    _, dist8, ordering8, _, _ = gp_construction(8)
    assert minimality_certificate(ordering8, dist8).certified
    # GP(10) under the published constant-increment rule: valid, span 36,
    # and its ordering breaks the two-step clause
    graph10 = make_gp(10)
    dist10 = all_pairs_distances(graph10)
    coloring10 = Coloring(reference_gp_colors(10), k=dist10.diameter - 1)
    assert verify_radio_k(graph10, dist10, coloring10).valid and span(coloring10) == 36
    ordering10 = ordering_from_sequence(coloring10, dist10, gp_ordering(10))
    cert10 = pattern_certificate(ordering10, dist10)
    assert cert10.status == "CriterionFailed"
    assert cert10.failures and all(f[1] == CLAUSE_TWO_STEP for f in cert10.failures)
    # the minimality certificate reports the same clauses and the missed bound
    assert minimality_certificate(ordering10, dist10).failures == \
        cert10.failures + ((20, CLAUSE_LOWER_BOUND, 36, 27),)


def test_pattern_alone_does_not_certify_minimality():
    # GP(5)'s construction passes the paper's pattern at span 8, but the
    # optimum is 6; the triameter-bound clause is what keeps it uncertified
    graph, dist, ordering, coloring, _ = gp_construction(5)
    assert pattern_certificate(ordering, dist).certified
    cert = minimality_certificate(ordering, dist)
    assert cert.status == "CriterionFailed"
    assert cert.failures == ((10, CLAUSE_LOWER_BOUND, 8, 4),)
    result = exact_rc_k(graph, dist, coloring.k)
    assert (result.status, result.value) == (SOLVED, 6)


def test_triameter_closed_form_matches_exhaustive_triples():
    for graph in (make_cycle(3), make_cycle(8), make_gp(3), make_gp(6),
                  make_torus(3, 4), make_torus(4, 5)):
        closed, bfs = distances(graph), all_pairs_distances(graph)
        assert isinstance(closed, CycleProductDistances)
        d = bfs.dist
        exhaustive = max(int(d[u, v] + d[v, w] + d[u, w])
                         for u, v, w in combinations(range(graph.n), 3))
        assert triameter(closed) == triameter(bfs) == exhaustive, graph.params
        assert triameter_bound(closed) == triameter_bound(bfs)
    # GP(10): V = 20, diam = 6, tri = 12, so 9 two-step gaps of 3
    assert triameter_bound(distances(make_gp(10))) == 27


def test_certificate_c4_hand_example(c4):
    g, d = c4
    coloring = Coloring((0, 1, 0, 1), k=1)
    ordering = ordering_from_sequence(coloring, d, (0, 2, 1, 3))
    cert = minimality_certificate(ordering, d)
    assert cert.certified


def test_certificate_rejects_wrong_k(c4):
    g, d = c4
    coloring = Coloring((0, 1, 2, 3), k=2)
    with pytest.raises(RadioError):
        minimality_certificate(order_by_color(coloring, d), d)


def test_ordering_from_sequence_validation(c4):
    g, d = c4
    coloring = Coloring((0, 1, 0, 1), k=1)
    with pytest.raises(RadioError):
        ordering_from_sequence(coloring, d, (0, 1, 2))  # not a permutation
    with pytest.raises(RadioError):
        ordering_from_sequence(coloring, d, (1, 0, 2, 3))  # colors decrease
    # entries that are not integers, or do not fit in 64 bits
    for order in ((0, 1.0, 2, 3), ("0", 1, 2, 3), (0, 1, 2, 2 ** 70)):
        with pytest.raises(RadioError, match="not a permutation"):
            ordering_from_sequence(coloring, d, order)


def test_coloring_validation():
    with pytest.raises(RadioError):
        Coloring((0, -1), k=1)
    with pytest.raises(RadioError):
        Coloring((0, 1), k=0)
