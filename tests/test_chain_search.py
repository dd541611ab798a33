"""Chain-search integrity: frozen data stays regenerable and honest."""

import os

import pytest

from antipodal.graphs import all_pairs_distances, make_torus
from antipodal.radio import (minimality_certificate, ordering_from_sequence,
                             span, verify_radio_k)
from antipodal.torus import (_KNOWN_CHAINS, _SEARCH_CACHE, _chain_search,
                             ConstructionError, torus_ac_formula,
                             torus_antipodal_coloring, torus_ordering)


def test_frozen_chains_validate_end_to_end():
    for (r, s), (labels, deltas) in _KNOWN_CHAINS.items():
        assert sorted(labels) == [(i, j) for i in range(r) for j in range(s)]
        graph = make_torus(r, s)
        dist = all_pairs_distances(graph)
        coloring = torus_antipodal_coloring(r, s)
        assert verify_radio_k(graph, dist, coloring).valid
        assert span(coloring) == torus_ac_formula(r, s).value
        ordering = ordering_from_sequence(coloring, dist, torus_ordering(r, s))
        assert minimality_certificate(ordering, dist).certified


def test_search_solves_a_tiny_instance_live():
    # T(3,4) has a quick certified chain; run the search from scratch
    _SEARCH_CACHE.clear()
    labels, deltas = _chain_search(3, 4, torus_ac_formula(3, 4).value)
    assert len(labels) == 12 and len(set(labels)) == 12
    _SEARCH_CACHE.clear()


def test_search_raises_on_unreachable_span():
    # far below any feasible telescoped span: must exhaust quickly
    with pytest.raises(ConstructionError):
        _chain_search(3, 4, 2, node_cap=500_000)
    _SEARCH_CACHE.clear()


def _swap_across_pairs(labels, deltas):
    labels[0], labels[5] = labels[5], labels[0]  # pairs 0 and 2; span stays 28


def _raise_first_pair_gap(labels, deltas):
    deltas[0] += 1


@pytest.mark.parametrize("corrupt", [_swap_across_pairs, _raise_first_pair_gap])
def test_self_check_rejects_corrupted_frozen_chain(monkeypatch, corrupt):
    labels, deltas = (list(part) for part in _KNOWN_CHAINS[(3, 8)])
    corrupt(labels, deltas)
    monkeypatch.setitem(_KNOWN_CHAINS, (3, 8), (labels, deltas))
    monkeypatch.delitem(_SEARCH_CACHE, (3, 8), raising=False)
    # permutation and span still hold, so the pairwise verifier must reject it
    with pytest.raises(ConstructionError,
                       match=r"antipodal condition fails between \(\d, \d\) and"):
        torus_antipodal_coloring(3, 8)


@pytest.mark.skipif(not os.environ.get("ANTIPODAL_SLOW"),
                    reason="set ANTIPODAL_SLOW=1 to re-derive frozen chains (minutes)")
def test_regenerate_frozen_chains_from_scratch():
    frozen = dict(_KNOWN_CHAINS)
    try:
        for (r, s), (labels, deltas) in frozen.items():
            _KNOWN_CHAINS.clear()
            _SEARCH_CACHE.clear()
            target = torus_ac_formula(r, s).value
            found_labels, found_deltas = _chain_search(r, s, target)
            assert (found_labels, found_deltas) == (labels, deltas)
    finally:
        _KNOWN_CHAINS.clear()
        _KNOWN_CHAINS.update(frozen)
        _SEARCH_CACHE.clear()
