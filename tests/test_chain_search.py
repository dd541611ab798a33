"""Certified-chain fallback: the repaired sizes are built live and checked."""

import pytest

from antipodal import torus
from antipodal.graphs import all_pairs_distances, make_torus
from antipodal.radio import (minimality_certificate, ordering_from_sequence,
                             span, verify_radio_k)
from antipodal.torus import (_certified_chain, ConstructionError, torus_ac_formula,
                             torus_antipodal_coloring, torus_ordering)


def test_repaired_chains_validate_end_to_end():
    # sizes whose published orderings fail, so the fallback builds them
    for r, s in ((3, 8), (3, 14)):
        graph = make_torus(r, s)
        dist = all_pairs_distances(graph)
        coloring = torus_antipodal_coloring(r, s)
        assert verify_radio_k(graph, dist, coloring).valid
        assert span(coloring) == torus_ac_formula(r, s).value
        ordering = ordering_from_sequence(coloring, dist, torus_ordering(r, s))
        assert minimality_certificate(ordering, dist).certified


def test_search_solves_a_tiny_instance_live():
    # T(3,4) has a quick certified chain; the fallback finds it from scratch
    labels, deltas = _certified_chain(3, 4, torus_ac_formula(3, 4).value)
    assert sorted(labels) == [(i, j) for i in range(3) for j in range(4)]
    assert len(deltas) == 6 and deltas[-1] == 0


def test_search_raises_on_unreachable_span():
    # far below any feasible telescoped span: must exhaust quickly
    with pytest.raises(ConstructionError, match="no certified pair chain"):
        _certified_chain(3, 4, 2)


def _swap_across_pairs(labels, deltas):
    labels[0], labels[5] = labels[5], labels[0]  # pairs 0 and 2; span stays 28


def _raise_first_pair_gap(labels, deltas):
    deltas[0] += 1


@pytest.mark.parametrize("corrupt", [_swap_across_pairs, _raise_first_pair_gap])
def test_self_check_rejects_corrupted_chain(monkeypatch, corrupt):
    labels, deltas = _certified_chain(3, 8, torus_ac_formula(3, 8).value)
    corrupt(labels, deltas)
    monkeypatch.setattr(torus, "_certified_chain", lambda r, s, value: (labels, deltas))
    # permutation and span still hold, so the pairwise verifier must reject it
    with pytest.raises(ConstructionError,
                       match=r"antipodal condition fails between \(\d, \d\) and"):
        torus_antipodal_coloring(3, 8)
