"""Polynomial root solving via closed-form difference identities, inverse
series, generalized hypergeometric regrouping, periodic nested radicals and
dominant-term fixed-point iteration, all cross-checked against a
Durand-Kerner oracle.

Each public name is imported from its module on first use, so importing
the package (or polysolve.cli) compiles none of the route modules; a solve
then loads only the route it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_HOMES = {
    "algebra": (
        "RDBoundRow",
        "brauer_rd",
        "sylvester_resultant",
        "tschirnhaus_quadratic",
    ),
    "closedform": (
        "SquareDifferenceSplit",
        "solve_by_split",
        "solve_closed",
        "solve_cubic",
        "solve_quadratic",
        "solve_quartic",
        "square_difference_split",
    ),
    "grim": ("grim_coverage", "grim_solve"),
    "numerics": (
        "PFQParams",
        "PFQResult",
        "PoleError",
        "gamma_real",
        "pfq_eval",
        "pochhammer",
        "recip_gamma_real",
    ),
    "pipeline": ("cross_check", "solve"),
    "poly": (
        "ConvergenceError",
        "DegenerateError",
        "DegreeError",
        "DivergenceError",
        "GrimError",
        "Polynomial",
        "Quadrinomial",
        "RootEntry",
        "RootReport",
        "Trinomial",
        "all_roots_oracle",
        "distinct_roots",
        "eval_poly",
        "eval_poly_and_deriv",
        "match_roots",
        "newton_polish",
        "newton_polygon",
        "parse_poly",
        "polish",
        "poly_from_roots",
        "principal_pow",
        "scaled_residual",
    ),
    "radicals": (
        "quadrinomial_radical_root",
        "septic_radical_root",
        "trinomial_radical_root",
    ),
    "series": (
        "PFQRootForm",
        "PFQRootGroup",
        "SeriesDiagnostics",
        "adjacent_septic_root",
        "argument_modulus_constant",
        "bring_jerrard_quintic",
        "quadrinomial_series_root",
        "trinomial_pfq_root",
        "trinomial_series_root",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
