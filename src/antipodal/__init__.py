"""Antipodal (radio) colorings of generalized Petersen graphs and tori.

Construction, verification and certification of minimal antipodal
colorings, closed-form span formulas, an exact branch-and-bound solver for
desk-scale instances, and a CLI front end.
"""

from .graphs import (CycleProductDistances, Graph, DistanceMatrix, GraphError,
                     all_pairs_distances, closed_form_diameter, cyclic_distance,
                     distances, make_cartesian_product, make_cycle, make_gp,
                     make_torus)
from .radio import (Coloring, ColorOrdering, MinimalityCertificate, RadioError,
                    VerificationReport, minimality_certificate, order_by_color,
                    ordering_from_sequence, pattern_certificate, span,
                    span_identity_residual, triameter, triameter_bound,
                    verify_radio_k)
from .results import (EXACT, LOWER_BOUND, UPPER_BOUND, Case, Construction, FormulaResult,
                      PatternReport)
from .gp import (gp_ac_formula, gp_antipodal_coloring, gp_case, gp_construction,
                 gp_ordering, validate_gp_ordering)
from .torus import (TorusError, ConstructionError, torus_ac_formula,
                    torus_antipodal_coloring, torus_case, torus_construction,
                    torus_ordering, validate_torus_ordering)
from .families import construct
from .solver import ExactResult, exact_rc_k, greedy_coloring

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
