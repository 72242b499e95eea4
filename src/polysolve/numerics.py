"""Special-function kernel: Gamma, reciprocal Gamma, Pochhammer, the one
series stopping rule and pFq series.

Everything here is plain 64-bit floating point (``float`` / ``complex``);
no arbitrary precision. _REL_TOL is the one relative tolerance of every
series sum. sum_series holds the one heuristic stopping rule, which reads
a sum as converged, diverged or truncated term by term: the quadrinomial
and septic series and pfq_eval stop by it. The pFq evaluator feeds it the
term recurrence

    t_{n+1} = t_n * prod(a_i + n) / ((n + 1) prod(b_j + n)) * z,

with each step factor worked out from the parameters as the sum reaches it.
pfq_eval keeps no values. The trinomial series and its pFq form, in
series, do not call it: they are one sum of pFq classes, each summed from
its exact class steps (these step factors times z) once for all the
branches of a trinomial. Below the convergence boundary a class stops at a
term count proven by the tail bound |T_N| |z| / (1 - |z|) and is summed in
C; past it the class goes to sum_series.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import count, islice

from .poly import MAX_TERMS, _Record, _require_count


class PoleError(ValueError):
    """Evaluation hit a Gamma pole that the series cannot step over."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_real(x: float) -> float:
    """Gamma(x) for real x (math.gamma). Raises PoleError at nonpositive
    integers and OverflowError from x = 171.62 on."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


def recip_gamma_real(x: float) -> float:
    """1/Gamma(x); exactly 0 at the poles (nonpositive integers)."""
    if _is_nonpositive_integer(x):
        return 0.0
    if x >= 0.5:
        try:
            return 1.0 / gamma_real(x)
        except OverflowError:  # Gamma(x) overflows from x = 171.62 on
            return math.exp(-math.lgamma(x))
    # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi, stable for x far below zero.
    s = math.sin(math.pi * x)
    try:
        g = math.exp(math.lgamma(1.0 - x))
    except OverflowError:
        return math.copysign(math.inf, s)
    return s * g / math.pi


def gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for real non-pole x (alternates between poles)."""
    if x > 0.0:
        return 1
    return -1 if math.ceil(-x) % 2 else 1


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    acc: complex = 1.0
    for i in range(n):
        acc = acc * (a + i)
    return acc


class PFQParams(_Record, frozen=True):
    """Upper (a_1..a_p) and lower (b_1..b_q) parameter lists of a pFq."""

    __slots__ = ("upper", "lower")

    def __init__(self, upper: Iterable[complex], lower: Iterable[complex]):
        object.__setattr__(self, "upper", tuple(complex(a) for a in upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in lower))


class PFQResult(_Record):
    __slots__ = ("value", "terms_used", "status")

    def __init__(self, value: complex, terms_used: int, status: str):
        self.value = value
        self.terms_used = terms_used
        self.status = status  # converged | diverged | truncated


# Growth counts from term 16 on, because convergent series (a pFq before
# the n! in its denominator takes over) routinely grow first; a series
# whose terms grow this many times in a row has diverged.
_GROWTH_FROM = 16
_GROWTH_RUN = 8
# a sum has converged once its latest term is this small against it
_REL_TOL = 1e-12


def sum_series(
    term0: complex,
    terms: Iterable[complex],
    budget: int,
    rel_tol: float = _REL_TOL,
) -> tuple[complex, int, str]:
    """Sum term0 and then terms 1, 2, ... as ``terms`` yields them, taking at
    most ``budget`` of them. Returns the sum, how many of ``terms`` it took
    and one of three verdicts, by one rule for every series:

    - a zero term (a reciprocal-Gamma pole) is added and otherwise skipped;
    - converged once a nonzero term is <= rel_tol |sum|;
    - diverged once, from term 16 on, the nonzero terms grow 8 times in a
      row;
    - converged when ``terms`` runs out before the budget is spent: the
      series is exact;
    - when the budget is spent, diverged if the latest nonzero term still
      exceeds |sum|, otherwise truncated;
    - diverged, whatever the above said, when the sum is not finite or a
      magnitude is past the float range.
    """
    total = term0
    n = 0
    status = "converged"  # by the test at the bottom, or when terms runs out
    last = 0.0  # the latest nonzero magnitude, 0.0 before one
    run = 0
    try:
        for n, term in enumerate(islice(terms, budget), 1):
            total += term
            mag = abs(term)
            if not mag:
                continue
            if mag > last > 0.0 and n >= _GROWTH_FROM:
                run += 1
                if run == _GROWTH_RUN:
                    status = "diverged"
                    break
            else:
                run = 0
            last = mag
            if mag <= rel_tol * abs(total):
                break
        else:
            if n == budget:
                status = "diverged" if last > abs(total) else "truncated"
    except OverflowError:
        # abs() of a modulus past the float range, or of a NaN read with the
        # errno that an earlier overflow left (CPython's complex abs)
        status = "diverged"
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        status = "diverged"
    return total, n, status


def _real_nonpositive_int(c: complex) -> int | None:
    """If c is (numerically) a real nonpositive integer, return it."""
    if abs(c.imag) > 0.0:
        return None
    r = c.real
    if r > 0.0 or r != math.floor(r):
        return None
    return int(r)


def pfq_eval(
    params: PFQParams,
    z: complex,
    max_terms: int = MAX_TERMS,
    regularized: bool = False,
) -> PFQResult:
    """Sum the generalized hypergeometric series pFq(a; b; z) by sum_series.

    A nonpositive-integer upper parameter -m terminates the series at
    n = m (polynomial case) and takes precedence over lower-parameter
    pole detection; at z = 0 the series is its constant term. With ``regularized`` each lower Pochhammer is read
    through 1/Gamma, i.e. the sum of prod(a)_n z^n / (n! prod Gamma(b_j+n)).
    Both paths sum at most max_terms terms, and terms_used counts the terms
    summed, the constant term included. A max_terms that is not an int of
    at least 1 raises ValueError.
    """
    _require_count("max_terms", max_terms)
    z = complex(z)
    terminate_at = _least_nonpositive_int(params.upper)
    pole_at = _least_nonpositive_int(params.lower)
    if pole_at is not None and not regularized:
        if terminate_at is None or terminate_at > pole_at:
            raise PoleError(
                f"lower pFq parameter {-pole_at} is a nonpositive integer"
            )

    if z == 0:  # only the constant term is nonzero
        terminate_at = 0
    if regularized:
        terms = _regularized_terms(params, z, terminate_at)
    else:
        terms = _pfq_terms(params, z, terminate_at)
    # a series that terminates within max_terms runs out before its budget
    budget = max_terms - 1
    if terminate_at is not None and terminate_at < max_terms:
        budget = terminate_at + 1
    total, n, status = sum_series(next(terms), terms, budget)
    return PFQResult(total, n + 1, status)


def _pfq_terms(params: PFQParams, z: complex, last: int | None) -> Iterator[complex]:
    """Terms n = 0, 1, ... of pFq(a; b; z), up to n = last when it is given,
    by the term recurrence; they stop after a zero term, as every later one
    is zero."""
    term: complex = 1.0
    yield term
    upper, lower = params.upper, params.lower
    for m in count() if last is None else range(last):
        num = 1.0
        for a in upper:
            num *= a + m
        den = m + 1.0
        for b in lower:
            den *= b + m
        term = term * num / den * z
        yield term
        if not term:
            return


def _least_nonpositive_int(values: Iterable[complex]) -> int | None:
    """The least m >= 0 such that -m is (numerically) one of values."""
    found = [-m for m in map(_real_nonpositive_int, values) if m is not None]
    return min(found, default=None)


def _regularized_terms(
    params: PFQParams, z: complex, last: int | None
) -> Iterator[complex]:
    """Terms n = 0, 1, ... of the regularized sum, up to n = last when it is
    given; lower parameters may sit on poles (those terms vanish)."""
    for b in params.lower:
        if abs(b.imag) > 0.0:
            raise ValueError("regularized evaluation expects real lower parameters")
    lower = [b.real for b in params.lower]
    # prod (a)_n z^n / n!, kept as a running product; once every b + n is
    # positive it takes in prod 1/Gamma(b + n) too, so that it cannot
    # overflow while the terms themselves stay finite
    ratio: complex = 1.0
    folded = False
    for n in count() if last is None else range(last + 1):
        if not folded and all(b + n > 0 for b in lower):
            for b in lower:
                ratio *= recip_gamma_real(b + n)
            folded = True
        term = ratio
        if not folded:
            for b in lower:
                term *= recip_gamma_real(b + n)
        yield term
        step = z / (n + 1.0)
        for a in params.upper:
            step *= a + n
        if folded:
            for b in lower:
                step /= b + n
        ratio *= step
