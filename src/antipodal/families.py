"""The built-in graph families, by name: the one place that maps a family
and its parameters to a graph, a span formula, a pattern validation or a
construction.

Builders are called through this module's names, not stored in a table, so
that rebinding a builder (as a tracer does) is seen here too.
"""

from __future__ import annotations

from .graphs import Graph, GraphError, make_cycle, make_gp, make_torus
from .gp import gp_ac_formula, gp_construction, validate_gp_ordering
from .results import Construction, FormulaResult, PatternReport
from .torus import (ConstructionError, torus_ac_formula, torus_construction,
                    validate_torus_ordering)

# Parameter names of each family, in the order its builders take them.
FAMILY_PARAMS = {"cycle": ("n",), "gp": ("n",), "torus": ("r", "s")}


def make_graph(family: str, params: dict) -> Graph:
    """The family's graph; ``params`` may come from a JSON file."""
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        raise GraphError(f"cannot rebuild family {family!r} from params")
    args = [params[name] for name in FAMILY_PARAMS[family]]
    if any(type(arg) is not int for arg in args):
        raise GraphError(f"{family} parameters must be integers")
    if family == "cycle":
        return make_cycle(*args)
    if family == "gp":
        return make_gp(*args)
    return make_torus(*args)


def formula(family: str, **params) -> FormulaResult:
    """Closed-form antipodal span of the family at ``params``."""
    if family == "gp":
        return gp_ac_formula(**params)
    if family == "torus":
        return torus_ac_formula(**params)
    raise GraphError(f"no span formula for family {family!r}")


def validate(family: str, **params) -> PatternReport:
    """The emitted ordering's distance pattern, scanned on BFS distances."""
    if family == "gp":
        return validate_gp_ordering(**params)
    if family == "torus":
        return validate_torus_ordering(**params)
    raise GraphError(f"no construction ordering for family {family!r}")


def construct(family: str, **params) -> Construction:
    """The family's construction record.  Raises ``ConstructionError`` where
    the family has no construction or a construction fails its check, and
    ``TorusError`` for a torus with odd rs."""
    if family == "gp":
        return gp_construction(**params)
    if family == "torus":
        return torus_construction(**params)
    raise ConstructionError(f"no construction for family {family!r}")
