"""The exhaustive certified-span check: its T(3,12) verdicts and its soundness."""

from itertools import product

import pytest

from antipodal.graphs import all_pairs_distances, cyclic_distance, make_torus
from antipodal.radio import (Coloring, ordering_from_sequence,
                             pattern_certificate, span, verify_radio_k)
from antipodal.torus import torus_ac_formula

import span_check
from span_check import SpanCheckError, check_certified_span


def _library_accepts(r, s, chain):
    """Library verifier and certificate on a chain of (vertex, color)."""
    graph = make_torus(r, s)
    dist = all_pairs_distances(graph)
    colors = [0] * graph.n
    for v, c in chain:
        colors[v] = c
    coloring = Coloring(tuple(colors), dist.diameter - 1)
    ordering = ordering_from_sequence(coloring, dist, [v for v, _ in chain])
    return (verify_radio_k(graph, dist, coloring).valid
            and pattern_certificate(ordering, dist).certified), span(coloring)


def _reference_min_certified_span(r, s):
    """Smallest span of a certified pair chain, by plain search: every
    anchor, partner and pair gap, no step-length lemmas, no symmetry pins
    beyond A_1 = vertex 0."""
    n, diam = r * s, r // 2 + s // 2
    pairs = n // 2
    d = [[cyclic_distance(r, u // s, v // s) + cyclic_distance(s, u % s, v % s)
          for v in range(n)] for u in range(n)]
    best = [n * diam]
    placed, used = [(0, 0)], [True] + [False] * (n - 1)

    def fits(v, c):
        return all(abs(c - cu) >= diam - d[v][u] for u, cu in placed)

    def grow(m, a, ca):
        for b in range(n):
            if used[b] or d[a][b] != diam:
                continue
            for delta in (range(diam) if m < pairs - 1 else (0,)):
                if not fits(b, ca + delta):
                    continue
                if m == pairs - 1:
                    best[0] = min(best[0], ca)
                    continue
                placed.append((b, ca + delta))
                used[b] = True
                for a2 in range(n):
                    step = d[a][a2]
                    c2 = ca + diam - step
                    if (used[a2] or c2 >= best[0] or delta > d[b][a2] - step
                            or not fits(a2, c2)):
                        continue
                    placed.append((a2, c2))
                    used[a2] = True
                    grow(m + 1, a2, c2)
                    placed.pop()
                    used[a2] = False
                placed.pop()
                used[b] = False

    grow(0, 0, 0)
    return best[0]


def test_t312_span_60_ruled_out_in_four_steps():
    result = check_certified_span(3, 12, 60)
    assert result.ruled_out
    assert result.top == 4 and result.isolated
    # the 9 orderings of the multiset 8 x 4 + 9 x 3 that the earlier hand
    # argument asserted, now derived
    assert result.sequences == 9
    assert result.nodes > 0 and result.chain is None
    assert len(result.findings) == 4


@pytest.mark.parametrize("s,published", [(16, 104), (20, 160), (24, 228)])
def test_larger_30_class_published_span_ruled_out(s, published):
    # the published (3,0)-class span (r^2 s + r s^2 - rs - 2r - 2s + 6) / 8
    # is out of reach of every certified chain at T(3,16), T(3,20), T(3,24)
    # as well
    assert published == (9 * s + 3 * s * s - 3 * s - 6 - 2 * s + 6) // 8
    result = check_certified_span(3, s, published)
    assert result.ruled_out and result.nodes > 0


def test_t312_certified_span_61_exists():
    # the same enumeration one span higher finds a chain, and the library's
    # own verifier and certificate accept it
    result = check_certified_span(3, 12, 61)
    assert result.chain is not None and not result.ruled_out
    assert _library_accepts(3, 12, result.chain) == (True, 61)


@pytest.mark.parametrize("r,s", [(3, 4), (4, 3), (4, 4)])
def test_minimum_matches_plain_search(r, s):
    expected = _reference_min_certified_span(r, s)
    assert check_certified_span(r, s, expected - 1).ruled_out
    found = check_certified_span(r, s, expected)
    assert _library_accepts(r, s, found.chain) == (True, expected)


def test_search_solves_a_tiny_instance_live():
    # T(3,4) has a quick certified chain; the enumeration finds it from scratch
    chain = check_certified_span(3, 4, torus_ac_formula(3, 4).value).chain
    assert sorted(v for v, _ in chain) == list(range(12))
    assert chain[-1][1] == chain[-2][1]  # the final pair has gap 0


def test_search_rules_out_an_unreachable_span():
    # far below any feasible telescoped span: must exhaust quickly
    result = check_certified_span(3, 4, 2)
    assert result.ruled_out and result.chain is None


@pytest.mark.parametrize("isolated", [False, True])
def test_length_rule_matches_plain_enumeration(isolated):
    # the bottom-up count and the options it hands step (4) against every
    # length sequence listed outright
    for steps, top, budget in product(range(1, 6), range(1, 5), range(-1, 8)):
        lengths, count = span_check._length_rule(steps, top, budget, isolated)
        expected = sorted(
            seq for seq in product(range(1, top + 1), repeat=steps)
            if sum(top - x for x in seq) <= budget
            and not (isolated and (seq[-1] == top or any(
                a == b == top for a, b in zip(seq, seq[1:])))))

        def walk(m, spent, prev_top):
            if m == steps:
                yield ()
                return
            for length, spent2, is_top in lengths(m, spent, prev_top):
                yield from ((length, *rest) for rest in walk(m + 1, spent2, is_top))

        assert count == len(expected)
        assert sorted(walk(0, 0, False)) == expected


def test_node_cap_and_parameters(monkeypatch):
    monkeypatch.setattr(span_check, "NODE_CAP", 100)
    with pytest.raises(SpanCheckError):
        check_certified_span(3, 12, 60)
    with pytest.raises(ValueError):
        check_certified_span(3, 5, 10)


@pytest.mark.parametrize("r,s", [(5, 14), (9, 14), (21, 6)])
def test_memory_stays_bounded_until_the_node_cap(monkeypatch, r, s):
    # step (3) leaves about 1.1e15 step-length sequences at T(5,14) and
    # 2e28 at T(9,14) and T(21,6): it must count them and hand step (4) a
    # rule, never a list, so that the node cap is what ends the check
    monkeypatch.setattr(span_check, "NODE_CAP", 1000)
    with pytest.raises(SpanCheckError):
        check_certified_span(r, s, torus_ac_formula(r, s).value)


def test_large_tori_end_with_a_typed_error(monkeypatch):
    # T(31,22) has 340 steps, too many for a count that recurses once per
    # step: the node cap must still be what ends the check
    monkeypatch.setattr(span_check, "NODE_CAP", 1000)
    with pytest.raises(SpanCheckError, match="more than 1000 nodes"):
        check_certified_span(31, 22, torus_ac_formula(31, 22).value)
    with pytest.raises(SpanCheckError, match=f"more than {span_check.VERTEX_CAP} vertices"):
        check_certified_span(100, 100, torus_ac_formula(100, 100).value)
