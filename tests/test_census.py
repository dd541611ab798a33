"""Census of the desk-scale sizes the exact solver settles at once: each
size's antipodal number (k = diameter - 1) against the triameter bound, the
emitted construction and the status the span formula claims."""

import pytest

from antipodal.families import construct, formula
from antipodal.graphs import distances, make_gp, make_torus
from antipodal.radio import span, triameter_bound
from antipodal.results import EXACT, LOWER_BOUND, ConstructionError, TorusError
from antipodal.solver import SOLVED, exact_rc_k

NEVER_BINDS_S = 1e9  # a time budget far above any run, so only nodes bind

SIZES = ([("gp", {"n": n}) for n in range(3, 8)]
         + [("torus", {"r": r, "s": s}) for r, s in ((3, 3), (3, 4), (3, 5), (4, 4))])


@pytest.fixture(scope="module")
def census():
    """(family, params, optimum, triameter bound, emitted span or None,
    formula) for each of ``SIZES``."""
    rows = []
    for family, params in SIZES:
        graph = make_gp(**params) if family == "gp" else make_torus(**params)
        dist = distances(graph)
        result = exact_rc_k(graph, dist, dist.diameter - 1, time_budget=NEVER_BINDS_S)
        assert result.status == SOLVED, (family, params)
        try:
            emitted = span(construct(family, **params).coloring)
        except (ConstructionError, TorusError):  # odd rs: no construction
            emitted = None
        rows.append((family, params, result.value, triameter_bound(dist), emitted,
                     formula(family, **params)))
    return rows


def test_census_bounds_hold(census):
    # triameter bound <= optimum <= emitted span, and a LowerBound formula
    # value is at most the optimum
    assert sum(emitted is None for *_, emitted, _ in census) == 2  # T(3,3), T(3,5)
    for family, params, optimum, bound, emitted, result in census:
        assert bound <= optimum, (family, params)
        if emitted is not None:
            assert optimum <= emitted, (family, params)
        if result.status == LOWER_BOUND:
            assert result.value <= optimum, (family, params)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the formulas claim Exact above the optimum: GP(5) 8 vs 6, "
                          "GP(6) 15 vs 11, T(4,4) 17 vs 15")
def test_census_exact_status_is_the_optimum(census):
    wrong = [(family, params, result.value, optimum)
             for family, params, optimum, _, _, result in census
             if result.status == EXACT and result.value != optimum]
    assert wrong == []
