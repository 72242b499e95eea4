"""Series root engines: inverse-power trinomial and quadrinomial expansions,
their regrouping into generalized hypergeometric form, the Bring-Jerrard
quintic, the general-polynomial multinomial series and the cubic-seeded
correction series for the four-term septic.

All term construction runs in log space (lgamma plus complex logs) so that
Gamma-ratio terms far past the pole line neither overflow nor lose the
exact zeros contributed by reciprocal-Gamma factors.
"""

from __future__ import annotations

import cmath
import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .closedform import solve_cubic
from .numerics import (
    DivergenceError,
    PFQParams,
    SeriesConfig,
    gamma_sign,
    pfq_eval,
    sum_series,
)
from .poly import (
    Polynomial,
    RootEntry,
    RootReport,
    all_roots_oracle,
    distinct_roots,
    polish,
    scaled_residual,
)

_TWO_PI = 2.0 * math.pi
_INF = complex(math.inf, 0.0)


@dataclass(frozen=True)
class Trinomial:
    """z**s - alpha * z**b - q = 0 with integer exponents s > b >= 1."""

    s: int
    b: int
    alpha: complex
    q: complex

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("trinomial needs s >= 2")
        if not 1 <= self.b <= self.s - 1:
            raise ValueError("trinomial needs 1 <= b <= s-1")
        if self.q == 0:
            raise ValueError("trinomial needs q != 0")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "q", complex(self.q))

    def polynomial(self) -> Polynomial:
        coeffs = [0j] * (self.s + 1)
        coeffs[0] = -self.q
        coeffs[self.b] = -self.alpha
        coeffs[self.s] = 1.0
        return Polynomial(coeffs)


@dataclass(frozen=True)
class Quadrinomial:
    """x**s + c * x**r + alpha * x - b = 0 with s >= 4 and 2 <= r <= s-2."""

    s: int
    r: int
    c: complex
    alpha: complex
    b: complex

    def __post_init__(self):
        if self.s < 4:
            raise ValueError("quadrinomial needs s >= 4")
        if not 2 <= self.r <= self.s - 2:
            raise ValueError("quadrinomial needs 2 <= r <= s-2")
        if self.alpha == 0:
            raise ValueError("quadrinomial needs alpha != 0")
        for name in ("c", "alpha", "b"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    def polynomial(self) -> Polynomial:
        coeffs = [0j] * (self.s + 1)
        coeffs[0] = -self.b
        coeffs[1] = self.alpha
        coeffs[self.r] = self.c
        coeffs[self.s] = 1.0
        return Polynomial(coeffs)


@dataclass
class SeriesDiagnostics:
    status: str  # converged | diverged | truncated
    terms_used: int
    series_value: complex
    pre_polish_residual: float
    residual: float
    iterations: int = 0
    warnings: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def reciprocal_series_root(
    alpha: complex, s: complex, cfg: SeriesConfig = SeriesConfig()
) -> complex:
    """Root of z = alpha + s/z (the larger root of z^2 - alpha z - s).

    Sums alpha + sum_m (-1)^(m-1) C_{m-1} s^m / alpha^(2m-1) with C the
    Catalan numbers; term decay is the convergence authority.
    """
    alpha = complex(alpha)
    s = complex(s)
    if s == 0:
        return alpha
    if alpha == 0:
        raise DivergenceError("expansion point alpha = 0", None)
    ratio_base = s / (alpha * alpha)

    def terms():
        term = s / alpha
        for m in count(1):
            yield term
            term = term * (-ratio_base) * (2.0 * (2 * m - 1) / (m + 1))

    total, _, status = sum_series(alpha, terms(), cfg.max_terms, cfg.rel_tol)
    if status == "diverged":
        raise DivergenceError("series terms grow", total)
    return total


@lru_cache(maxsize=128)
def _term_table(s: int, b: int, length: int) -> tuple[array, array]:
    """Gamma-ratio parts of terms 0..length of the trinomial inverse-power
    series: gamma_sign(x2) (0.0 at a reciprocal-Gamma pole, where the term
    is exactly 0) and the log magnitude lgamma((1+bn)/s) - lgamma(x2)
    - lgamma(n+1) - log(s), with x2 = (1 + bn + s - ns)/s. They depend on
    the integers alone, so one table serves every branch and coefficient.
    Callers get theirs from _covering_table."""
    sign = array("d", [0.0]) * (length + 1)
    log_mag = array("d", [0.0]) * (length + 1)
    for n in range(length + 1):
        num2 = 1 + b * n + s - n * s  # s * (denominator Gamma argument)
        if num2 % s == 0 and num2 <= 0:
            continue
        x2 = num2 / s
        sign[n] = gamma_sign(x2)
        log_mag[n] = (
            math.lgamma((1 + b * n) / s)
            - math.lgamma(x2)
            - math.lgamma(n + 1)
            - math.log(s)
        )
    return sign, log_mag


def _covering_table(s: int, b: int, n: int) -> tuple[array, array]:
    """The term table that holds term n: the default series length (or s,
    for the pFq prefactors), doubled until it reaches n. The series and the
    pFq form share it, and a large max_terms builds no more than about
    twice the terms a series reads."""
    length = max(SeriesConfig.max_terms, s)
    while length < n:
        length *= 2
    return _term_table(s, b, length)


def trinomial_log_term(t: Trinomial, k: int, n: int) -> complex:
    """Term n >= 1 of the inverse-power series for branch k; exact 0 at the
    reciprocal-Gamma poles. _trinomial_terms yields an inlined copy; this
    is the reference the tests compare it with."""
    s, b = t.s, t.b
    sign, log_mag = _covering_table(s, b, n)
    if sign[n] == 0.0 or t.alpha == 0:
        return 0j
    z = (
        n * cmath.log(t.alpha)
        + ((1 + b * n - n * s) / s) * cmath.log(t.q)
        + complex(log_mag[n], _TWO_PI * k * (1 + b * n) / s)
    )
    return sign[n] * cmath.exp(z)


def trinomial_series_root(
    t: Trinomial, k: int, cfg: SeriesConfig = SeriesConfig()
) -> tuple[complex, SeriesDiagnostics]:
    """Branch-k root of z^s - alpha z^b - q = 0 by Lagrange inversion.

    The series sits on top of the principal s-th root of q rotated by
    e^(2*pi*i*k/s); every term carries the phase e^(2*pi*i*k*(1+b*n)/s).
    sum_series decides when to stop, at stride s. Converged and truncated
    values are Newton-polished against the trinomial; a diverged sum raises
    DivergenceError carrying the partial sum.
    """
    s = t.s
    lead = cmath.exp(cmath.log(t.q) / s + 2j * math.pi * k / s)
    # term magnitudes zigzag across residue classes mod s; geometric decay
    # or growth is only visible at stride s
    total, terms_used, status = sum_series(
        lead, _trinomial_terms(t, k, cfg.max_terms), cfg.max_terms, cfg.rel_tol, stride=s
    )
    p = t.polynomial()
    pre = scaled_residual(p, total)
    if status == "diverged":
        raise DivergenceError(
            f"series branch k={k} diverged after {terms_used} terms", total
        )
    root, res, its, _ = polish(p, total, tol=1e-12, max_iter=80)
    diag = SeriesDiagnostics(status, terms_used, total, pre, res, its)
    return root, diag


def _trinomial_terms(t: Trinomial, k: int, stop: int) -> Iterator[complex]:
    """Terms n = 1..stop of the branch-k series (trinomial_log_term, inlined
    with the logs taken once). With alpha = 0 there are no terms."""
    if t.alpha == 0:
        return
    s, b = t.s, t.b
    log_q = cmath.log(t.q)
    log_alpha = cmath.log(t.alpha)
    two_pi_k = _TWO_PI * k
    sign, log_mag = _covering_table(s, b, 1)
    for n in range(1, stop + 1):
        if n == len(sign):
            sign, log_mag = _covering_table(s, b, n)
        sg = sign[n]
        if sg == 0.0:
            yield 0j
            continue
        try:
            term = sg * cmath.exp(
                n * log_alpha
                + ((1 + b * n - n * s) / s) * log_q
                + complex(log_mag[n], two_pi_k * (1 + b * n) / s)
            )
        except OverflowError:  # past the float range: the sum reads diverged
            term = _INF
        yield term


@lru_cache(maxsize=256)
def argument_modulus_constant(s: int, b: int) -> Fraction:
    """Exact modulus coefficient b^b (s-b)^(s-b) / s^s of the regrouped
    hypergeometric argument."""
    if not 1 <= b < s:
        raise ValueError("need 1 <= b < s")
    return Fraction(b**b * (s - b) ** (s - b), s**s)


@dataclass
class PFQRootGroup:
    prefactor: complex  # q-power excluded
    power_of_q: Fraction
    params: PFQParams
    argument: complex


@dataclass
class PFQRootForm:
    """One trinomial root branch as a finite sum of pFq values.

    Evaluates to sum over residue classes of
    prefactor * q^power_of_q * pFq(params; argument).
    """

    trinomial: Trinomial
    k: int
    groups: list[PFQRootGroup]

    def evaluate(self, cfg: SeriesConfig = SeriesConfig()) -> tuple[complex, str]:
        total = 0j
        status = "converged"
        log_q = cmath.log(self.trinomial.q)
        for g in self.groups:
            if g.prefactor == 0:
                continue
            res = pfq_eval(g.params, g.argument, cfg)
            if res.status != "converged":
                status = res.status
            total += g.prefactor * cmath.exp(float(g.power_of_q) * log_q) * res.value
        return total, status


def trinomial_pfq_root(t: Trinomial, k: int) -> PFQRootForm:
    """Regroup the trinomial inverse-power series by residue class of the
    term index modulo s.

    Within one class the successive-term ratio is rational in the class
    counter, so each class is a single pFq; the shared argument is
    (-1)^(s-b) * b^b (s-b)^(s-b) / s^s * alpha^s / q^(s-b) (unit phase
    e^(2*pi*i*k*b) folded in). Parameters follow from the Gamma shift
    algebra in exact rational arithmetic, with upper/lower cancellation;
    they depend on (s, b, class) alone and are built once (_class_params).
    """
    s, b = t.s, t.b
    const = argument_modulus_constant(s, b)
    sign = -1.0 if (s - b) % 2 else 1.0
    # e^(2*pi*i*k*b) is an integer turn: exactly one
    argument = (
        sign
        * float(const)
        * t.alpha**s
        * cmath.exp((b - s) * cmath.log(t.q))
    )
    sign, log_mag = _covering_table(s, b, s - 1)
    log_alpha = cmath.log(t.alpha) if t.alpha != 0 else 0j
    groups: list[PFQRootGroup] = []
    for n0 in range(s):
        power = Fraction(1 + b * n0 - n0 * s, s)
        params = _class_params(s, b, n0)
        # prefactor = first class term without its q power
        if sign[n0] == 0.0:
            pref = 0j
        elif n0 == 0:
            pref = cmath.exp(2j * math.pi * k / s)
        elif t.alpha == 0:
            pref = 0j  # pure binomial: every later class vanishes
        else:
            z = n0 * log_alpha + complex(log_mag[n0], _TWO_PI * k * (1 + b * n0) / s)
            pref = sign[n0] * cmath.exp(z)
        groups.append(PFQRootGroup(pref, power, params, argument))
    return PFQRootForm(t, k, groups)


@lru_cache(maxsize=1024)
def _class_params(s: int, b: int, r0: int) -> PFQParams:
    """pFq parameters of residue class r0 (term indices n = r0 mod s), from
    the Gamma shift algebra in exact rational arithmetic with upper/lower
    cancellation; empty for a class whose first term sits on a
    reciprocal-Gamma pole (the whole class vanishes)."""
    num2 = 1 + b * r0 + s - r0 * s
    if num2 % s == 0 and num2 <= 0:
        return PFQParams((), ())
    a0 = Fraction(1 + b * r0, s) + 1 - r0  # class-start denominator argument
    upper = [(Fraction(1 + b * r0, s) + i) / b for i in range(b)]
    upper += [(Fraction(tt) - a0) / (s - b) for tt in range(1, s - b + 1)]
    lower = [Fraction(r0 + j, s) for j in range(1, s + 1) if j != s - r0]
    upper_red, lower_red = _cancel_params(upper, lower)
    return PFQParams(
        tuple(complex(float(u)) for u in upper_red),
        tuple(complex(float(l)) for l in lower_red),
    )


def _cancel_params(
    upper: list[Fraction], lower: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    up = list(upper)
    low = list(lower)
    for u in list(up):
        if u in low:
            up.remove(u)
            low.remove(u)
    return up, low


def bring_jerrard_quintic(alpha: complex, q: complex) -> RootReport:
    """All five roots of z^5 + alpha z - q = 0.

    Runs the trinomial series over the five branches (alpha sign-flipped
    into the standard trinomial shape) and keeps the distinct roots
    (poly.distinct_roots). When fewer than five remain, because a series
    diverged or branches collided, the polished all-roots oracle roots
    (branch -1) join them, the five lowest-residual distinct roots are
    kept, and the warnings say so.
    """
    p = Polynomial([-q, alpha, 0, 0, 0, 1])
    warnings: list[str] = []
    found: list[RootEntry] = []
    fallback_branches: list[int] = []
    if q == 0:
        fallback_branches = list(range(5))
        warnings.append("q = 0 is outside the series form; oracle fallback")
    else:
        t = Trinomial(5, 1, -alpha, q)
        for k in range(5):
            try:
                root, diag = trinomial_series_root(t, k)
                found.append(RootEntry(root, diag.residual, k, diag.iterations))
            except DivergenceError:
                fallback_branches.append(k)
        if fallback_branches:
            warnings.append(
                "series diverged for branches "
                f"{fallback_branches}; oracle fallback"
            )

    kept = distinct_roots(found)
    if len(kept) < 5:
        if not fallback_branches:
            warnings.append("series branches collided; oracle fill-in")
        fill = [
            RootEntry(x, res, branch=-1, iterations=its)
            for x, res, its, _ in (
                polish(p, e.root, tol=1e-12) for e in all_roots_oracle(p).roots
            )
        ]
        kept = distinct_roots(kept + fill)[:5]
    return RootReport(kept, method="bring-jerrard", warnings=warnings).sort()


def quadrinomial_series_root(
    w: Quadrinomial, cfg: SeriesConfig = SeriesConfig()
) -> tuple[complex, SeriesDiagnostics]:
    """Series root of x^s + c x^r + alpha x - b = 0 near x = b/alpha.

    Term n is the binomial-Gamma closed form of the n-th inversion
    derivative: ((-1)^n) sum_j c^(n-j) / (j! (n-j)!) * alpha^(-n)
    * Gamma(mu+1)/Gamma(mu+2-n) * z^(mu+1-n) with mu = r n + (s-r) j,
    all evaluated at z = b/alpha. The stated convergence prechecks are
    advisory; sum_series decides.
    """
    s, r = w.s, w.r
    p = w.polynomial()
    notes = {}
    if w.c != 0:
        notes["precheck_cb_over_alpha2"] = abs(w.c * w.b / (w.alpha * w.alpha))
        notes["precheck_tail"] = abs(
            w.b ** (s - 2) / (w.c * w.alpha ** (s - 2))
        )
    if w.b == 0:
        diag = SeriesDiagnostics("converged", 0, 0j, 0.0, 0.0, 0, notes=notes)
        return 0j, diag

    z = w.b / w.alpha
    log_z = cmath.log(z)
    log_alpha = cmath.log(w.alpha)
    log_c = cmath.log(w.c) if w.c != 0 else None

    def term_at(n: int) -> complex:
        acc = 0j
        for j in range(n + 1):
            if log_c is None and j < n:
                continue
            mu = r * n + (s - r) * j
            logv = (
                math.lgamma(mu + 1)
                - math.lgamma(mu + 2 - n)
                - math.lgamma(j + 1)
                - math.lgamma(n - j + 1)
                - n * log_alpha
                + (mu + 1 - n) * log_z
            )
            if log_c is not None:
                logv += (n - j) * log_c
            try:
                acc += cmath.exp(logv)
            except OverflowError:  # past the float range: the sum reads diverged
                return _INF
        return acc if n % 2 == 0 else -acc

    total, terms_used, status = sum_series(
        z, map(term_at, count(1)), cfg.max_terms, cfg.rel_tol
    )
    if status == "diverged":
        raise DivergenceError(
            f"quadrinomial series diverged after {terms_used} terms", total
        )
    pre = scaled_residual(p, total)
    root, res, its, _ = polish(p, total, tol=1e-12, max_iter=80)
    return root, SeriesDiagnostics(status, terms_used, total, pre, res, its, notes=notes)


def _series_mul(a: list[complex], b: list[complex], order: int) -> list[complex]:
    out = [0j] * (order + 1)
    for i, av in enumerate(a):
        if av == 0:
            continue
        for j, bv in enumerate(b):
            if i + j > order:
                break
            out[i + j] += av * bv
    return out


def adjacent_septic_root(
    c: complex, a: complex, b: complex, q: complex, cfg: SeriesConfig = SeriesConfig()
) -> tuple[complex, SeriesDiagnostics]:
    """Root of x^7 + c x^3 + a x^2 + b x - q = 0 from the cubic-seeded series.

    The seed z_in is the branch-0 root that solve_cubic gives for the
    adjacent cubic g = c z^3 + a z^2 + b z - q, polished on g. The
    correction series is the expansion of the full root in powers of the
    degree-7 perturbation around that cubic, built by implicit series
    inversion and summed at weight one; the first
    term is -z_in^7 / g'(z_in). Experimental contract: the series improves
    the seed's residual, Newton polish supplies the final root. If the
    series terms grow immediately the seed is returned with a warning.
    """
    if c == 0:
        raise ValueError("adjacent method needs a nonzero x^3 coefficient")
    p = Polynomial([-q, b, a, c, 0, 0, 0, 1.0])
    g = Polynomial([-q, b, a, c])
    seed = next(e.root for e in solve_cubic(g).roots if e.branch == 0)
    z_in = polish(g, seed, tol=1e-15, max_iter=30)[0]
    res_seed = scaled_residual(p, z_in)

    g1 = 3.0 * c * z_in * z_in + 2.0 * a * z_in + b
    g2 = 3.0 * c * z_in + a
    g3 = c
    warnings: list[str] = []
    if g1 == 0:
        warnings.append("vanishing cubic derivative at the seed; series skipped")
        value, terms_used, status = z_in, 0, "diverged"
    else:
        order = min(cfg.max_terms, 40)
        y = [0j] * (order + 1)
        for m in range(1, order + 1):
            y2 = _series_mul(y, y, m)
            y3 = _series_mul(y2, y, m)
            zy = y[:]
            zy[0] = zy[0] + z_in
            pw = [1.0 + 0j]
            for _ in range(7):
                pw = _series_mul(pw, zy, m)
            rhs = g2 * y2[m] + g3 * y3[m] + (pw[m - 1] if m - 1 <= len(pw) - 1 else 0j)
            y[m] = -rhs / g1
        value = z_in
        prev = math.inf
        status = "truncated"
        terms_used = 0
        for m in range(1, order + 1):
            mag = abs(y[m])
            if mag > prev:
                status = "converged" if prev <= cfg.rel_tol * abs(value) else "diverged"
                break
            value += y[m]
            terms_used = m
            prev = mag
            if mag <= cfg.rel_tol * abs(value):
                status = "converged"
                break
        if terms_used == 0:
            value = z_in
            warnings.append("first series term already grows; seed returned")

    pre = scaled_residual(p, value)
    if pre > res_seed:
        value = z_in
        pre = res_seed
        if status != "diverged":
            warnings.append("series did not improve the seed; seed returned")
        status = "diverged"
    root, res, its, converged = polish(p, value, tol=1e-12, max_iter=100)
    if not converged:
        warnings.append(f"polish stalled at residual {res:.3e}")
    diag = SeriesDiagnostics(
        status,
        terms_used,
        value,
        pre,
        res,
        its,
        warnings=warnings,
        notes={"seed": z_in, "seed_residual": res_seed},
    )
    return root, diag


def _taylor_shift(p: Polynomial, c: complex) -> list[complex]:
    """Coefficients of p around c: p(z) = sum alpha_j (z - c)^j.

    Repeated synthetic division by (x - c); each remainder is the next
    Taylor coefficient.
    """
    work = list(p.coeffs)
    out: list[complex] = []
    while work:
        quotient = [0j] * (len(work) - 1)
        acc = 0j
        for i in range(len(work) - 1, 0, -1):
            acc = acc * c + work[i]
            quotient[i - 1] = acc
        out.append(acc * c + work[0])
        work = quotient
    return out


def general_poly_series_root(
    p: Polynomial, c: complex, order: int = 24, cfg: SeriesConfig = SeriesConfig()
) -> tuple[complex, SeriesDiagnostics]:
    """Multinomial Lagrange series for one root of p near the center c.

    With alpha_j the Taylor coefficients of p at c, sums over multi-indices
    (n_2..n_k) of weight W = sum j n_j <= order:

        z = c - (alpha_0/alpha_1) * sum (n-1)!/(n_1! n_2! ... n_k!)
            * prod_j (alpha_0^(j-1) alpha_j / (-alpha_1)^j)^(n_j)

    where n = W + 1 and n_1 = sum (j-1) n_j + 1. The weight groups are the
    terms of sum_series, with order as the budget and stride k; when it
    reads diverged, the sum is cut at the smallest group, and that cut must
    polish to a root. The value is Newton-polished.
    """
    alphas = _taylor_shift(p, c)
    if len(alphas) < 2 or alphas[1] == 0:
        raise ValueError("series center needs p'(c) != 0")
    a0, a1 = alphas[0], alphas[1]
    if a0 == 0:
        diag = SeriesDiagnostics("converged", 0, c, scaled_residual(p, c), scaled_residual(p, c))
        return c, diag
    k = len(alphas) - 1
    ratios = [0j, 0j] + [
        a0 ** (j - 1) * alphas[j] / (-a1) ** j for j in range(2, k + 1)
    ]
    dominance = abs(a0 / a1)
    advisory_ok = all(abs(rt) * dominance < 1.0 for rt in ratios[2:]) if k >= 2 else True

    index: list[int] = [0] * (k + 1)

    def group(w: int) -> complex:
        """Sum of the terms of weight w, in increasing multi-index order."""
        acc = 0j

        def walk(j: int, weight: int):
            nonlocal acc
            if j == k:  # the last count is what the weight leaves
                rest = w - weight
                if rest % k:
                    return
                index[k] = rest // k
                n1 = sum((jj - 1) * index[jj] for jj in range(2, k + 1)) + 1
                denom = math.factorial(n1)
                for jj in range(2, k + 1):
                    denom *= math.factorial(index[jj])
                val = complex(math.factorial(w) / denom)  # (n - 1)! with n = w + 1
                for jj in range(2, k + 1):
                    if index[jj]:
                        val *= ratios[jj] ** index[jj]
                acc += val
                index[k] = 0
                return
            for count_j in range((w - weight) // j + 1):
                index[j] = count_j
                walk(j + 1, weight + j * count_j)
            index[j] = 0

        walk(2, 0)
        return acc

    groups = [1 + 0j]  # weight 0: the empty multi-index

    def weights():
        """Groups of weight 1, 2, ..., built as the sum asks for them; a
        linear p is its own series, with nothing past weight 0."""
        if k == 1:
            return
        for w in count(1):
            try:
                groups.append(group(w))
            except OverflowError:  # past the float range: the sum reads diverged
                groups.append(_INF)
            yield groups[w]

    # the groups zigzag across the weight classes, each ratio j setting a
    # period j <= k, so k groups in a row must be small
    total, n, status = sum_series(groups[0], weights(), order, cfg.rel_tol, stride=k)
    terms_used = n + 1
    warnings: list[str] = []
    if status == "diverged":
        # asymptotic rescue: truncate at the smallest group and let the
        # polish decide whether that prefix was close enough
        best = min((w for w in range(terms_used) if groups[w]), key=lambda w: abs(groups[w]))
        total = groups[0]
        for g in groups[1 : best + 1]:
            total += g
        terms_used = best + 1
        warnings.append("series groups grow; truncated at the smallest group")
        status = "truncated"

    value = c - (a0 / a1) * total
    pre = scaled_residual(p, value)
    root, res, its, _ = polish(p, value, tol=1e-12, max_iter=80)
    if warnings and not res <= 1e-8:  # a NaN residual fails too
        raise DivergenceError("multinomial series diverged", value)
    diag = SeriesDiagnostics(
        status, terms_used, value, pre, res, its,
        warnings=warnings,
        notes={"advisory_dominance_ok": advisory_ok},
    )
    return root, diag
