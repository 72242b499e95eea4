"""Special-function kernel: Gamma, reciprocal Gamma, principal powers,
Pochhammer, the one series stopping rule and pFq series.

Everything here is plain 64-bit floating point (``float`` / ``complex``);
no arbitrary precision. sum_series holds the one stopping rule of the
series sums, all but the septic correction series (which stops at its
first growing term), and reads each as converged, diverged or truncated.
The pFq evaluator feeds it the term recurrence

    t_{n+1} = t_n * prod(a_i + n) / prod(b_j + n) * z / (n + 1).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import count, islice


class PoleError(ValueError):
    """Evaluation hit a Gamma pole that the series cannot step over."""


class DivergenceError(ArithmeticError):
    """A series or iteration failed to converge; carries the partial value."""

    def __init__(self, message: str, partial: complex | None = None):
        super().__init__(message)
        self.partial = partial


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


def principal_pow(z: complex, e: float) -> complex:
    """Principal branch of z**e in polar form, |z|**e at angle e*Arg(z)
    with Arg in [-pi, pi]; the sign of a zero imaginary part picks the side
    of the negative real axis. 0 maps to 0."""
    if z == 0:
        return 0j
    r = abs(z) ** e
    theta = cmath.phase(z) * e
    return complex(r * math.cos(theta), r * math.sin(theta))


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    acc: complex = 1.0
    for i in range(n):
        acc = acc * (a + i)
    return acc


@dataclass(frozen=True)
class PFQParams:
    """Upper (a_1..a_p) and lower (b_1..b_q) parameter lists of a pFq."""

    upper: tuple[complex, ...]
    lower: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(complex(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation and convergence control for series summation."""

    max_terms: int = 400
    rel_tol: float = 1e-12

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.rel_tol < 2.3e-16:
            raise ValueError("rel_tol below machine epsilon")


@dataclass
class PFQResult:
    value: complex
    terms_used: int
    status: str  # converged | diverged | truncated


# Growth counts from term 16 on, because convergent series (a pFq before
# the n! in its denominator takes over) routinely grow first; a residue
# class that grows this many times in a row has diverged.
_GROWTH_FROM = 16
_GROWTH_RUN = 8


def sum_series(
    term0: complex, terms: Iterable[complex], budget: int, rel_tol: float, stride: int = 1
) -> tuple[complex, int, str]:
    """Sum term0 and then terms 1, 2, ... as ``terms`` yields them, taking at
    most ``budget`` of them. Returns the sum, how many of ``terms`` it took
    and one of three verdicts, by one rule for every series:

    - a zero term (a reciprocal-Gamma pole) is added and otherwise skipped;
    - converged once the last ``stride`` nonzero terms (fewer, if fewer
      have come) are each <= rel_tol |sum|, from term ``stride`` on;
    - diverged once, from term 16 on, the terms of one residue class
      n mod ``stride`` grow 8 times in a row;
    - converged when ``terms`` runs out before the budget is spent: the
      series is exact;
    - when the budget is spent, diverged if the latest nonzero term of some
      class still exceeds |sum|, otherwise truncated;
    - diverged, whatever the above said, when the sum is not finite.

    The stride is the period of the terms' magnitude pattern: the
    trinomial series zigzags across the classes n mod s and decays or grows
    only along each.
    """
    total = term0
    last = [0.0] * stride  # latest nonzero magnitude per class, 0.0 before one
    runs = [0] * stride
    ring = [0.0] * stride  # the last stride nonzero magnitudes
    slot = 0
    n = 0
    status = "converged"  # by the test at the bottom, or when terms runs out
    for term in islice(terms, budget):
        n += 1
        total += term
        mag = abs(term)
        if not mag:
            continue
        cls = n % stride
        if n >= _GROWTH_FROM and mag > last[cls] > 0.0:
            runs[cls] += 1
            if runs[cls] == _GROWTH_RUN:
                status = "diverged"
                break
        else:
            runs[cls] = 0
        last[cls] = mag
        ring[slot] = mag
        slot += 1
        if slot == stride:
            slot = 0
        bound = rel_tol * abs(total)
        if mag <= bound and n >= stride and max(ring) <= bound:
            break
    else:
        if n == budget:
            status = "diverged" if max(last) > abs(total) else "truncated"
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
    cfg: SeriesConfig = SeriesConfig(),
    regularized: bool = False,
) -> PFQResult:
    """Sum the generalized hypergeometric series pFq(a; b; z) by sum_series.

    A nonpositive-integer upper parameter -m terminates the series at
    n = m (polynomial case) and takes precedence over lower-parameter
    pole detection; at z = 0 the series is its constant term. With ``regularized`` each lower Pochhammer is read
    through 1/Gamma, i.e. the sum of prod(a)_n z^n / (n! prod Gamma(b_j+n)).
    Both paths sum at most max_terms terms, and terms_used counts the terms
    summed, the constant term included.
    """
    z = complex(z)
    terminate_at: int | None = None
    for a in params.upper:
        m = _real_nonpositive_int(a)
        if m is not None:
            mu = -m
            terminate_at = mu if terminate_at is None else min(terminate_at, mu)
    pole_at: int | None = None
    for b in params.lower:
        m = _real_nonpositive_int(b)
        if m is not None:
            mb = -m
            pole_at = mb if pole_at is None else min(pole_at, mb)
    if pole_at is not None and not regularized:
        if terminate_at is None or terminate_at > pole_at:
            raise PoleError(
                f"lower pFq parameter {-pole_at} is a nonpositive integer"
            )

    if z == 0:  # only the constant term is nonzero
        terminate_at = 0
    # the term indices n of a terminating series are 0..terminate_at
    indices = count() if terminate_at is None else range(terminate_at + 1)
    if regularized:
        terms = _regularized_terms(params, z, indices)
    else:
        terms = _pfq_terms(params, z, indices)
    # a series that terminates within max_terms runs out before its budget
    budget = cfg.max_terms - 1
    if terminate_at is not None and terminate_at < cfg.max_terms:
        budget = terminate_at + 1
    total, n, status = sum_series(next(terms), terms, budget, cfg.rel_tol)
    return PFQResult(total, n + 1, status)


def _pfq_terms(params: PFQParams, z: complex, indices: Iterable[int]) -> Iterator[complex]:
    """Terms n of pFq(a; b; z) for n in indices (0, 1, ...), by the term
    recurrence; they stop after a zero term, as every later one is zero."""
    upper, lower = params.upper, params.lower
    term: complex = 1.0
    for n in indices:
        if n:
            m = n - 1
            num: complex = 1.0
            for a in upper:
                num *= a + m
            den: complex = n + 0.0
            for b in lower:
                den *= b + m
            term = term * num / den * z
        yield term
        if not term:
            return


def _regularized_terms(
    params: PFQParams, z: complex, indices: Iterable[int]
) -> Iterator[complex]:
    """Terms n of the regularized sum for n in indices (0, 1, ...); lower
    parameters may sit on poles (those terms vanish)."""
    for b in params.lower:
        if abs(b.imag) > 0.0:
            raise ValueError("regularized evaluation expects real lower parameters")
    lower = [b.real for b in params.lower]
    # prod (a)_n z^n / n!, kept as a running product; once every b + n is
    # positive it takes in prod 1/Gamma(b + n) too, so that it cannot
    # overflow while the terms themselves stay finite
    ratio: complex = 1.0
    folded = False
    for n in indices:
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
