"""The shared case type, construct step, construction check and
distance-pattern scan."""

import pytest

from antipodal import results, torus
from antipodal.cli import main
from antipodal.gp import CASE_4T, gp_case, gp_construction
from antipodal.radio import RadioError
from antipodal.results import (Case, ConstructionError, PatternReport, TorusError,
                               checked_construction, pattern_mismatches, pattern_report)
from antipodal.torus import L20, torus_case


def test_construction_check_rejects_a_reversed_ordering():
    graph, dist, ordering, coloring, formula = gp_construction(5)
    reversed_order = list(reversed(ordering.order))
    with pytest.raises(ConstructionError,
                       match=r"colors not monotone along ordering for \(5\)") as info:
        checked_construction(graph, dist, reversed_order, coloring, formula)
    # a failed construction is a ConstructionError (a GraphError), not a RadioError
    assert not isinstance(info.value, RadioError)


def test_pattern_mismatches_reports_each_kind_of_claim():
    # distances on a path: consecutive 2, 1, 4; two-step 3, 5; three-step 7
    order = [0, 2, 3, 7]
    tables = ((2,), (("ge", 4),), (None,))
    assert pattern_mismatches(order, lambda u, v: abs(u - v), tables) == [
        ("consecutive-distance", 3, 2, 1),
        ("consecutive-distance", 4, 2, 4),
        ("two-step-distance", 3, ">=4", 3),
    ]
    # position j reads table[j % len(table)]: two-step j = 3 reads 3, j = 4 reads 5
    tables = ((None,), (5, 3), (("ge", 8),))
    assert pattern_mismatches(order, lambda u, v: abs(u - v), tables) == [
        ("three-step-distance", 4, ">=8", 7),
    ]


def test_both_families_classify_into_one_case_type():
    assert gp_case(8) == Case(2, 8, CASE_4T)
    # T(4,6) is classified in the orientation (6, 4) that its class uses
    assert torus_case(4, 6) == Case(6, 4, L20, swapped=True)
    assert type(gp_case(8)) is type(torus_case(4, 6)) is Case


def test_pattern_report_takes_the_first_clause_set_that_holds(monkeypatch):
    construction = gp_construction(5)  # diameter 3, short distance 2
    bfs, scans = results.all_pairs_distances, []

    def counted(graph):
        scans.append(graph)
        return bfs(graph)

    monkeypatch.setattr(results, "all_pairs_distances", counted)
    pairs = ("pairs", ((3, None), (None,), (None,)))
    zero = ("zero", ((0,), (None,), (None,)))
    far = ("far", ((4,), (None,), (None,)))
    assert pattern_report(construction, [zero, pairs, far]) == PatternReport(True, "pairs", ())
    assert pattern_report(construction, [pairs, zero]) == PatternReport(True, "pairs", ())
    # no set holds: the last set's pattern and every one of its mismatches
    report = pattern_report(construction, [far, zero])
    assert (report.ok, report.pattern) == (False, "zero")
    assert report.mismatches == tuple(("consecutive-distance", j, 0, 3 if j % 2 == 0 else 2)
                                      for j in range(2, 11))
    # one BFS scan per report, whatever the number of clause sets
    assert len(scans) == 3


def test_construction_check_rejects_a_broken_torus_pair(monkeypatch, capsys):
    # the torus twin of the GP check: pair 0's partner swapped with pair 1's
    # anchor share a color without being antipodal, and the shared construct
    # step names them by their (i, j) labels
    ordering = torus._normalized_ordering

    def broken(case):
        order, deltas = ordering(case)
        order = order.copy()
        order[1], order[2] = order[2], order[1]
        return order, deltas

    monkeypatch.setattr(torus, "_normalized_ordering", broken)
    with pytest.raises(ConstructionError, match=r"antipodal condition fails between "
                       r"\(\d+, \d+\) and \(\d+, \d+\) \(color gap \d+ < \d+\) "
                       r"for \(4,4\)") as info:
        torus.torus_construction(4, 4)
    assert not isinstance(info.value, TorusError)
    for command in ("gen", "validate-ordering"):
        assert main([command, "--family", "torus", "--r", "4", "--s", "4"]) == 2
        assert "antipodal condition fails" in capsys.readouterr().err
