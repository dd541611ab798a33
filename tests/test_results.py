"""The shared construction check and distance-pattern scan."""

import pytest

from antipodal.gp import gp_construction
from antipodal.radio import RadioError
from antipodal.results import ConstructionError, checked_construction, pattern_mismatches


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
    checks = (lambda j: 2, lambda j: ("ge", 4), lambda j: None)
    assert pattern_mismatches(order, lambda u, v: abs(u - v), checks) == [
        ("consecutive-distance", 3, 2, 1),
        ("consecutive-distance", 4, 2, 4),
        ("two-step-distance", 3, ">=4", 3),
    ]
    checks = (lambda j: None, lambda j: 3 if j == 3 else 5, lambda j: ("ge", 8))
    assert pattern_mismatches(order, lambda u, v: abs(u - v), checks) == [
        ("three-step-distance", 4, ">=8", 7),
    ]
