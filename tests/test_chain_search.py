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
    chain = check_certified_span(3, s, torus_ac_formula(3, s).value).chain
    order = tuple(v for v, _ in chain)
    gaps = tuple(chain[m + 1][1] - chain[m][1] for m in range(0, len(chain), 2))
    assert torus._FROZEN_CHAINS[(3, s)] == (order, gaps)


def _swap_across_pairs(order, gaps):
    order[0], order[5] = order[5], order[0]  # pairs 0 and 2; span stays 28


def _raise_first_pair_gap(order, gaps):
    gaps[0] += 1


@pytest.mark.parametrize("corrupt", [_swap_across_pairs, _raise_first_pair_gap])
def test_self_check_rejects_corrupted_chain(monkeypatch, corrupt):
    order, gaps = (list(part) for part in torus._FROZEN_CHAINS[(3, 8)])
    corrupt(order, gaps)
    monkeypatch.setitem(torus._FROZEN_CHAINS, (3, 8), (tuple(order), tuple(gaps)))
    # permutation and span still hold, so the pairwise verifier must reject it
    with pytest.raises(ConstructionError,
                       match=r"antipodal condition fails between \(\d, \d\) and"):
        torus_antipodal_coloring(3, 8)
