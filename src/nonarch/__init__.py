"""nonarch: exact non-archimedean computation kernels.

Subpackages cover exact Q_p / Q_p(pi) arithmetic and certified power series
(padic, series), the ball-point model of the Berkovich line (berkovich),
splitting radii of p-power torsors with Artin-Schreier certificates
(torsor), vanishing orders of pole combinations (poles), currents on the
Tate tree with theta products and the ladder computation of ord (currents),
and metric-graph skeleton towers (skeleton).
"""

from .padic import (INF, NEG_INF, PadicNumber, binom_fractional, padic_digit_string,
                    valuation, vp_factorial)
from .series import (BoundedSeries, TailBound, convergence_logradius,
                     series_p_power_root)
from .berkovich import (BallPoint, Segment, classify_type, join, ladder_point,
                        product_at, same_point, seminorm)
from .torsor import (ArtinSchreierData, RamifiedGerm, artin_schreier_certificate,
                     dlog_ord, ramification_index, splitting_logradius_exact,
                     splitting_logradius_numeric)
from .poles import (OrderSetResult, PoleFamily, find_nonppower_order,
                    finite_product_eval, integer_approximation, moebius_orbit,
                    order_of_combination, order_set)
from .currents import (Current, EvalResult, FactoredFunction, LadderResult,
                       TateCurve, ThetaRequest, alpha_eval, alpha_germ,
                       current_from_slopes, current_x, delta_at_one, delta_eval,
                       factored_alpha, ladder_ord, moebius, moebius_current,
                       poly_current_eval, theta_automorphy_constant,
                       theta_automorphy_ratio, theta_product)
from .skeleton import (CompletedSubdivision, Edge, EdgeEnd, GraphPoint,
                       Refinement, SkeletonGraph, SkeletonTower, SubdivisionSet,
                       canonical_point, compose, compose_check, retract,
                       sample_points, subdivision_union, tower_separation)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
