"""Polynomial root solving via closed-form difference identities, inverse
series, generalized hypergeometric regrouping, periodic nested radicals and
dominant-term fixed-point iteration, all cross-checked against a
Durand-Kerner oracle."""

from .closedform import (
    SquareDifferenceSplit,
    solve_by_split,
    solve_closed,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
    square_difference_split,
)
from .grim import GrimConfig, GrimError, grim_coverage, grim_solve
from .numerics import (
    DivergenceError,
    PFQParams,
    PFQResult,
    PoleError,
    SeriesConfig,
    gamma_real,
    pfq_eval,
    pochhammer,
    principal_pow,
    recip_gamma_real,
)
from .pipeline import cross_check, solve
from .poly import (
    ConvergenceError,
    DegenerateError,
    DegreeError,
    Polynomial,
    RDBoundRow,
    RootEntry,
    RootReport,
    all_roots_oracle,
    brauer_rd,
    cauchy_bound,
    distinct_roots,
    eval_poly,
    eval_poly_and_deriv,
    match_roots,
    newton_polish,
    newton_polygon,
    parse_poly,
    polish,
    poly_from_roots,
    scaled_residual,
    sylvester_resultant,
    tschirnhaus_quadratic,
)
from .radicals import (
    RadicalIterConfig,
    quadrinomial_radical_root,
    septic_radical_root,
    sextic_radical_residual,
    sextic_radical_root,
    trinomial_radical_root,
)
from .series import (
    PFQRootForm,
    PFQRootGroup,
    Quadrinomial,
    SeriesDiagnostics,
    Trinomial,
    adjacent_septic_root,
    argument_modulus_constant,
    bring_jerrard_quintic,
    general_poly_series_root,
    quadrinomial_series_root,
    reciprocal_series_root,
    trinomial_pfq_root,
    trinomial_series_root,
)

__version__ = "0.1.0"
