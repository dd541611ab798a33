"""Frozen certified chains: T(3,8), T(3,12) and T(3,14) are built from
stored data, which the span check re-derives and the construction check
re-verifies."""

import pytest

from antipodal import torus
from antipodal.graphs import all_pairs_distances, make_torus
from antipodal.radio import (ordering_from_sequence, pattern_certificate,
                             span, verify_radio_k)
from antipodal.torus import (ConstructionError, torus_ac_formula,
                             torus_antipodal_coloring, torus_ordering)

from span_check import check_certified_span


def test_repaired_chains_validate_end_to_end():
    # sizes whose published orderings fail, so the frozen chains build them
    for r, s in ((3, 8), (3, 12), (3, 14)):
        graph = make_torus(r, s)
        dist = all_pairs_distances(graph)
        coloring = torus_antipodal_coloring(r, s)
        assert verify_radio_k(graph, dist, coloring).valid
        assert span(coloring) == torus_ac_formula(r, s).value
        ordering = ordering_from_sequence(coloring, dist, torus_ordering(r, s))
        assert pattern_certificate(ordering, dist).certified


@pytest.mark.parametrize("s", [8, 12, 14])
def test_frozen_chain_is_the_enumerations_first_chain(s):
    # the stored order is the enumeration's, and the colors derived from
    # it alone are the enumeration's colors, vertex by vertex
    chain = check_certified_span(3, s, torus_ac_formula(3, s).value).chain
    assert torus._FROZEN_CHAINS[(3, s)] == tuple(v for v, _ in chain)
    colors = torus_antipodal_coloring(3, s).colors
    assert [(v, colors[v]) for v, _ in chain] == list(chain)


def test_self_check_rejects_corrupted_chain(monkeypatch):
    order = list(torus._FROZEN_CHAINS[(3, 8)])
    order[0], order[5] = order[5], order[0]  # pairs 0 and 2; span stays 28
    monkeypatch.setitem(torus._FROZEN_CHAINS, (3, 8), tuple(order))
    # permutation and span still hold, so the pairwise verifier must reject it
    with pytest.raises(ConstructionError, match=r"antipodal condition fails "
                       r"between \(0, 0\) and \(0, 2\)"):
        torus_antipodal_coloring(3, 8)
