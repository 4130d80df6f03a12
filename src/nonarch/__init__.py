"""nonarch: exact non-archimedean computation kernels.

Subpackages cover exact Q_p / Q_p(pi) arithmetic and certified power series
(padic, series), the ball-point model of the Berkovich line (berkovich),
splitting radii of p-power torsors with Artin-Schreier certificates
(torsor), vanishing orders of pole combinations (poles), currents on the
Tate tree with theta products and the ladder computation of ord (currents),
and metric-graph skeleton towers (skeleton).

Importing the package imports none of them: each name below is looked up
in its module on access (PEP 562), which imports that module the first
time.  A resolved name is not stored here, so ``nonarch.X`` is always the
module's current ``X``, also while a profiler has replaced it.
"""

from importlib import import_module

_EXPORTS = {
    "padic": ("INF", "NEG_INF", "PadicNumber", "binom_fractional",
              "padic_digit_string", "valuation", "vp_factorial"),
    "series": ("BoundedSeries", "TailBound", "convergence_logradius",
               "series_p_power_root"),
    "berkovich": ("BallPoint", "Segment", "classify_type", "join", "ladder_point",
                  "product_at", "same_point", "seminorm"),
    "torsor": ("ArtinSchreierData", "RamifiedGerm", "artin_schreier_certificate",
               "dlog_ord", "ramification_index", "splitting_logradius_exact",
               "splitting_logradius_numeric"),
    "poles": ("OrderSetResult", "PoleFamily", "find_nonppower_order",
              "finite_product_eval", "integer_approximation", "moebius_orbit",
              "order_of_combination", "order_set"),
    "currents": ("Current", "EvalResult", "FactoredFunction", "LadderResult",
                 "ThetaRequest", "alpha_eval", "alpha_germ", "current_from_slopes",
                 "current_x", "delta_at_one", "delta_eval", "factored_alpha",
                 "ladder_ord", "moebius", "moebius_current", "poly_current_eval",
                 "theta_automorphy_constant", "theta_product"),
    "skeleton": ("CompletedSubdivision", "Edge", "EdgeEnd", "GraphPoint",
                 "Refinement", "SkeletonGraph", "SkeletonTower", "SubdivisionSet",
                 "canonical_point", "compose", "compose_check", "retract",
                 "sample_points", "subdivision_union", "tower_separation"),
    "errors": (),
}

# every public name, the submodules' own included, to the module holding it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *__all__})
