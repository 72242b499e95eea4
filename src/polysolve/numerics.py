"""Special-function kernel: Gamma, reciprocal Gamma, Pochhammer, pFq series.

Everything here is plain 64-bit floating point (``float`` / ``complex``);
no arbitrary precision. The pFq evaluator works on the term recurrence

    t_{n+1} = t_n * prod(a_i + n) / prod(b_j + n) * z / (n + 1)

and reports one of three outcomes: converged, diverged or truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class PoleError(ValueError):
    """Evaluation hit a Gamma pole that the series cannot step over."""


class DivergenceError(ArithmeticError):
    """A series or iteration failed to converge; carries the partial value."""

    def __init__(self, message: str, partial: complex | None = None):
        super().__init__(message)
        self.partial = partial


# Lanczos approximation, g = 7 with 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _lanczos_sum(x: float) -> float:
    acc = _LANCZOS[0]
    for i, coeff in enumerate(_LANCZOS[1:], start=1):
        acc += coeff / (x + i)
    return acc


def gamma_real(x: float) -> float:
    """Gamma(x) for real x via the Lanczos approximation with reflection.

    Raises PoleError at nonpositive integers.
    """
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_real(1.0 - x))
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(z)


def recip_gamma_real(x: float) -> float:
    """1/Gamma(x); exactly 0 at the poles (nonpositive integers)."""
    if _is_nonpositive_integer(x):
        return 0.0
    if x >= 0.5:
        return 1.0 / gamma_real(x)
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
    divergence_window: int = 8

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.rel_tol < 2.3e-16:
            raise ValueError("rel_tol below machine epsilon")
        if self.divergence_window < 1:
            raise ValueError("divergence_window must be >= 1")


@dataclass
class PFQResult:
    value: complex
    terms_used: int
    status: str  # converged | diverged | truncated


# Divergence counting only starts after this many terms: convergent pFq
# series routinely grow before the n! in the denominator takes over.
_DIVERGENCE_MIN_TERMS = 16


def _finished(total: complex, terms_used: int, status: str) -> PFQResult:
    """A sum that overflowed to inf or nan has diverged, whatever the
    stopping test said (inf <= rel_tol * inf holds)."""
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        status = "diverged"
    return PFQResult(total, terms_used, status)


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
    """Sum the generalized hypergeometric series pFq(a; b; z).

    A nonpositive-integer upper parameter -m terminates the series at
    n = m (polynomial case) and takes precedence over lower-parameter
    pole detection. With ``regularized`` each lower Pochhammer is read
    through 1/Gamma, i.e. the sum of prod(a)_n z^n / (n! prod Gamma(b_j+n)).
    A sum that overflowed to inf or nan reads diverged.
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

    if regularized:
        return _pfq_regularized(params, z, cfg, terminate_at)

    total: complex = 1.0
    term: complex = 1.0
    prev_mag = 1.0
    growth = 0
    for n in range(cfg.max_terms):
        if terminate_at is not None and n >= terminate_at:
            return _finished(total, n, "converged")
        num: complex = 1.0
        for a in params.upper:
            num *= a + n
        den: complex = n + 1.0
        for b in params.lower:
            den *= b + n
        term = term * num / den * z
        total += term
        mag = abs(term)
        if mag <= cfg.rel_tol * max(abs(total), 1e-300):
            return _finished(total, n + 1, "converged")
        if n + 1 >= _DIVERGENCE_MIN_TERMS and mag > prev_mag:
            growth += 1
            if growth >= cfg.divergence_window:
                return PFQResult(total, n + 1, "diverged")
        else:
            growth = 0
        prev_mag = mag
    return _finished(total, cfg.max_terms, "truncated")


def _pfq_regularized(
    params: PFQParams, z: complex, cfg: SeriesConfig, terminate_at: int | None
) -> PFQResult:
    """Regularized sum; lower parameters may sit on poles (those terms vanish)."""
    for b in params.lower:
        if abs(b.imag) > 0.0:
            raise ValueError("regularized evaluation expects real lower parameters")

    total: complex = 0.0
    ratio: complex = 1.0  # prod (a)_n z^n / n!, kept as a running product
    prev_mag = 0.0
    growth = 0
    n_used = 0
    for n in range(cfg.max_terms):
        if terminate_at is not None and n > terminate_at:
            return _finished(total, n_used, "converged")
        term = ratio
        for b in params.lower:
            term *= recip_gamma_real(b.real + n)
        total += term
        n_used = n + 1
        mag = abs(term)
        if n >= 1 and mag > 0.0 and mag <= cfg.rel_tol * max(abs(total), 1e-300):
            return _finished(total, n_used, "converged")
        if n + 1 >= _DIVERGENCE_MIN_TERMS and mag > prev_mag > 0.0:
            growth += 1
            if growth >= cfg.divergence_window:
                return PFQResult(total, n_used, "diverged")
        else:
            growth = 0
        prev_mag = mag
        step = z / (n + 1.0)
        for a in params.upper:
            step *= a + n
        ratio *= step
    return _finished(total, cfg.max_terms, "truncated")
