"""Series root engines: inverse-power trinomial and quadrinomial expansions,
their regrouping into generalized hypergeometric form, the Bring-Jerrard
quintic and the cubic-seeded correction series for the four-term septic.
Every series sum stops by numerics.sum_series. The Trinomial and
Quadrinomial shapes are poly's, re-exported here.

The trinomial series and its pFq form are one sum. Grouped by residue
class i = n mod s, branch k of the series is the sum over the classes of
base_i e^(2 pi i k (1+bi)/s) q^((1+bi-is)/s) F_i, where F_i, class i over
its first term, is a pFq of the argument shared by the classes. F_i steps
by an exact rational class step ratio[i + ms] times alpha^s q^(b-s), from
one row of class steps per (s, b) (_term_table). Nothing but the phase
depends on k, so base_i, the power of q and F_i are worked out once per
trinomial and kept in a one-entry memo (_branch_free), which both forms
read: the series root is the pFq form's sum, Newton-polished, and both
the series and the pfq route of the pipeline run it.
"""

from __future__ import annotations

import cmath
import math
from array import array
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, chain, count, islice, repeat, takewhile
from operator import mul
from typing import TYPE_CHECKING

from .numerics import PFQParams, gamma_sign, sum_series
from .poly import (
    MAX_TERMS,
    ConvergenceError,
    DivergenceError,
    Polynomial,
    Quadrinomial,
    RootReport,
    Trinomial,
    _Record,
    _require_count,
    polish,
    scaled_residual,
)

if TYPE_CHECKING:
    from fractions import Fraction

_TWO_PI = 2.0 * math.pi
_INF = complex(math.inf, 0.0)


def _inf_on_overflow(f, *args) -> complex:
    """f(*args), or _INF when the value is past the float range."""
    try:
        return f(*args)
    except OverflowError:
        return _INF


class SeriesDiagnostics(_Record):
    __slots__ = (
        "status", "terms_used", "series_value", "pre_polish_residual", "residual",
        "iterations", "warnings", "notes",
    )

    def __init__(
        self,
        status: str,  # converged | diverged | truncated
        terms_used: int,
        series_value: complex,
        pre_polish_residual: float,
        residual: float,
        iterations: int = 0,
        warnings: list[str] | None = None,  # a fresh list when None
        notes: dict | None = None,  # a fresh dict when None
    ):
        self.status = status
        self.terms_used = terms_used
        self.series_value = series_value
        self.pre_polish_residual = pre_polish_residual
        self.residual = residual
        self.iterations = iterations
        self.warnings = [] if warnings is None else warnings
        self.notes = {} if notes is None else notes


# the longest ratio row kept per (s, b); steps past it are worked out as
# they are read, so that a large max_terms stores no more
_ROW_CAP = 4096


def _ratio(s: int, b: int, n: int) -> float:
    """The class step t_(n+s) / (t_n alpha^s q^(b-s)) of the trinomial
    inverse-power series, prod_(i<b) ((1+bn)/s + i) prod_(j=1..s-b) (x2 - j)
    / prod_(i=1..s) (n+i) with x2 = (1 + bn + s - ns)/s, from exact
    rationals rounded once (0 where a class ends)."""
    num2 = 1 + b * n + s - n * s  # s * (denominator Gamma argument)
    return math.prod(range(1 + b * n, 1 + b * n + b * s, s)) * math.prod(
        range(num2 - s, num2 - (s - b + 1) * s, -s)
    ) / (s**s * math.prod(range(n + 1, n + s + 1)))


def _gamma_part(s: int, b: int, n: int) -> tuple[float, float]:
    """Sign and log magnitude of the part of term n that depends on the
    integers alone: gamma_sign(x2) (0.0 at a reciprocal-Gamma pole, where the
    term is exactly 0) and lgamma((1+bn)/s) - lgamma(x2) - lgamma(n+1)
    - log(s)."""
    num2 = 1 + b * n + s - n * s
    if num2 % s == 0 and num2 <= 0:
        return 0.0, 0.0
    x2 = num2 / s
    return float(gamma_sign(x2)), (
        math.lgamma((1 + b * n) / s) - math.lgamma(x2) - math.lgamma(n + 1) - math.log(s)
    )


class _TermTable:
    """The parts of the trinomial series that depend on (s, b) alone, so that
    one table serves every branch and coefficient: sign and log_mag of terms
    0..s (_gamma_part), which the classes' first terms read, and the row
    ratio[0], ratio[1], ... of class steps (_ratio), which the classes step
    by. Only the ratio row grows, as sums read further (_covering_row)."""

    __slots__ = ("sign", "log_mag", "ratio")

    def __init__(self, s: int, b: int):
        parts = [_gamma_part(s, b, n) for n in range(s + 1)]
        self.sign = array("d", [sign for sign, _ in parts])
        self.log_mag = array("d", [log_mag for _, log_mag in parts])
        length = min(max(MAX_TERMS, s) + 1, _ROW_CAP)
        # rows fill from a map, not a list: a list of the floats, held while
        # the row filled, raised the process's peak RSS by about 130 KB
        self.ratio = array("d", map(_ratio, repeat(s), repeat(b), range(length)))


@lru_cache(maxsize=128)
def _term_table(s: int, b: int) -> _TermTable:
    """The term table of (s, b), one per shape."""
    return _TermTable(s, b)


def _covering_row(s: int, b: int, n: int) -> array:
    """The ratio row of (s, b) that holds ratio[n], for n < _ROW_CAP: the
    default series length (or s), doubled until it reaches n, at most
    _ROW_CAP. A grown row is a new array that replaces the table's whole, so
    a reader keeps the row it holds, and a large max_terms builds no more
    than about twice the steps a sum reads."""
    table = _term_table(s, b)
    row = table.ratio
    if n >= len(row):
        length = len(row)
        while length <= n:
            length *= 2
        more = range(len(row), min(length, _ROW_CAP))
        row = table.ratio = row + array("d", map(_ratio, repeat(s), repeat(b), more))
    return row


def _steps(s: int, b: int, n: int, stride: int) -> Iterator[float]:
    """ratio[n], ratio[n + stride], ...: read from the row of (s, b), grown
    as the reader goes, and worked out one by one past _ROW_CAP."""
    return chain.from_iterable(_step_runs(s, b, n, stride))


def _step_runs(s: int, b: int, n: int, stride: int) -> Iterator[Iterator[float]]:
    """The runs of _steps: one per row it reads, then the unstored rest."""
    while n < _ROW_CAP:
        row = _covering_row(s, b, n)
        yield islice(row, n, None, stride)
        n += (len(row) - n + stride - 1) // stride * stride
    yield map(_ratio, repeat(s), repeat(b), count(n, stride))


def trinomial_log_term(t: Trinomial, k: int, n: int) -> complex:
    """Term n >= 1 of the branch-k series in log space (lgamma, complex logs);
    exact 0 at the reciprocal-Gamma poles. The reference for the series,
    which sums its terms class by class from the exact class steps
    (_BranchFree)."""
    s, b = t.s, t.b
    sign, log_mag = _gamma_part(s, b, n)
    if sign == 0.0 or t.alpha == 0:
        return 0j
    z = (
        n * cmath.log(t.alpha)
        + ((1 + b * n - n * s) / s) * cmath.log(t.q)
        + complex(log_mag, _TWO_PI * k * (1 + b * n) / s)
    )
    return sign * cmath.exp(z)


# the class statuses from best to worst
_STATUSES = ("converged", "truncated", "diverged")


class _BranchFree:
    """The parts of a trinomial's branches that do not depend on k.

    Branch k, of the series and of the pFq form, is the sum over the
    residue classes i = n mod s of

        base_i e^(2 pi i k (1+bi)/s) q^((1+bi-is)/s) F_i,

    where base_i = sign_i exp(i log alpha + log_mag_i) is the first term of
    class i without its phase and power of q (1 for class 0, the lead; 0
    for a class that vanishes, and for every class past 0 when alpha = 0)
    and F_i is the class over its first term (class_sum). bases, turns (the
    exponents (1+bi) mod s) and q_powers hold these per class, and units
    the phases e^(2 pi i j/s). step is the class step alpha^s q^(b-s) over
    ratio, the product of powers (alpha^s, q^(b-s)). weighted keeps, for
    the last max_terms, what branch_sum reads: the classes that do not
    vanish, their k-free parts q_powers[i] F_i (class_sum), the worst class
    status and the terms summed. So the s branches of both forms sum each
    class once."""

    __slots__ = (
        "s", "b", "polynomial", "bases", "turns", "q_powers", "units", "powers", "step",
        "pfq", "weighted",
    )

    def __init__(self, t: Trinomial):
        s, b = self.s, self.b = t.s, t.b
        self.polynomial = t.polynomial()
        log_q = cmath.log(t.q)
        self.weighted: tuple | None = None
        self.pfq: tuple | None = None  # by the first pFq form
        # past the float range a power is infinite: the class sums then read
        # diverged
        self.powers = (
            _inf_on_overflow(pow, t.alpha, s),
            _inf_on_overflow(cmath.exp, (b - s) * log_q),
        )
        # alpha = 0 leaves the lead alone, however large q^(b-s) is
        self.step = self.powers[0] * self.powers[1] if t.alpha != 0 else 0j
        table = _term_table(s, b)
        log_alpha = cmath.log(t.alpha) if t.alpha != 0 else 0j
        self.bases = [1.0]
        for i in range(1, s):
            if table.sign[i] == 0.0 or t.alpha == 0:
                self.bases.append(0.0)
            else:
                z = i * log_alpha + table.log_mag[i]
                self.bases.append(table.sign[i] * _inf_on_overflow(cmath.exp, z))
        self.turns = [(1 + b * i) % s for i in range(s)]
        # each class's power of q, (1 + bi - is)/s rounded once: the float of
        # its group's power_of_q
        self.q_powers = [
            _inf_on_overflow(cmath.exp, ((1 + b * i - i * s) / s) * log_q) for i in range(s)
        ]
        self.units = [cmath.exp(complex(0.0, _TWO_PI * j / s)) for j in range(s)]

    def prefactors(self, k: int) -> list[complex]:
        """The first term of each class of branch k without its power of q,
        base_i e^(2 pi i k (1+bi)/s): 0 where the class vanishes."""
        s, units = self.s, self.units
        return [base * units[k * turn % s] for base, turn in zip(self.bases, self.turns)]

    def pfq_parts(self) -> tuple[complex, list[tuple[Fraction, PFQParams]]]:
        """The argument (-1)^(s-b) b^b (s-b)^(s-b) / s^s alpha^s / q^(s-b) of
        every class, and each class's exact power of q and pFq parameters
        (_class_params); worked out for the first pFq form, so that a series
        solve does not import fractions."""
        if self.pfq is None:
            s, b = self.s, self.b
            # e^(2*pi*i*k*b) is an integer turn: exactly one
            sign = -1.0 if (s - b) % 2 else 1.0
            power_a, power_q = self.powers
            argument = sign * float(argument_modulus_constant(s, b)) * power_a * power_q
            self.pfq = (argument, [_class_params(s, b, i) for i in range(s)])
        return self.pfq

    def class_sum(self, i: int, max_terms: int) -> tuple[complex, str, int]:
        """F_i, its status and the terms it took, its first included. The
        class is the series' terms n = i, i + s, ... over the first of them,
        so its step m is ratio[i + ms] alpha^s q^(b-s), the argument times
        the parameters' step (_class_params); it stops after its last
        nonzero term, and sum_series takes at most max_terms - 1 terms after
        the constant 1."""
        s = self.s
        steps = map(mul, _steps(s, self.b, i, s), repeat(self.step))
        terms = takewhile(bool, accumulate(steps, mul, initial=1.0))
        value, used, status = sum_series(next(terms), terms, max_terms - 1)
        return value, status, used + 1

    def branch_sum(self, prefactors: list[complex], max_terms: int) -> tuple[complex, str, int]:
        """The sum over the classes of prefactors[i] q_powers[i] F_i, the
        worst class status (diverged when the sum is not finite) and the
        terms summed."""
        got = self.weighted
        if got is None or got[0] != max_terms:
            live = [i for i, base in enumerate(self.bases) if base != 0]
            sums = [self.class_sum(i, max_terms) for i in live]
            weights = [self.q_powers[i] * value for i, (value, _, _) in zip(live, sums)]
            worst = max(_STATUSES.index(status) for _, status, _ in sums)
            used = sum(count for _, _, count in sums)
            got = self.weighted = (max_terms, live, weights, _STATUSES[worst], used)
        _, live, weights, status, used = got
        total = sum(map(mul, map(prefactors.__getitem__, live), weights), 0j)
        if not cmath.isfinite(total):
            status = "diverged"
        return total, status, used


class _LastTrinomial:
    """A one-entry memo of _BranchFree, keyed by the trinomial object (held
    by the entry, so that its identity stays its own) and not by its value:
    equal trinomials can differ in the sign of a zero, which the principal
    logs read (q = -1 + 0j against q = -1 - 0j), and a lookup hashes
    nothing. The branches of one trinomial run in a row, so one entry serves
    them, and it never carries values from one trinomial to another. The
    entry is replaced whole, so a concurrent caller reads a whole entry."""

    __slots__ = ("entry",)

    def __init__(self):
        self.entry: tuple = (None, None)

    def __call__(self, t: Trinomial) -> _BranchFree:
        held, shared = self.entry
        if held is not t:
            shared = _BranchFree(t)
            self.entry = (t, shared)
        return shared

    def cache_clear(self) -> None:
        self.entry = (None, None)


_branch_free_memo = _LastTrinomial()


def _branch_free(t: Trinomial) -> _BranchFree:
    """The branch-free parts of t, built on the first branch that asks."""
    return _branch_free_memo(t)


def trinomial_series_root(
    t: Trinomial, k: int, max_terms: int = MAX_TERMS
) -> tuple[complex, SeriesDiagnostics]:
    """Branch-k root of z^s - alpha z^b - q = 0 by Lagrange inversion.

    The series sits on top of the principal s-th root of q rotated by
    e^(2*pi*i*k/s); term n carries the phase e^(2*pi*i*k*(1+b*n)/s), which
    is the same along each residue class n mod s. Summed class by class, it
    is the pFq form's sum, bit for bit trinomial_pfq_root(t, k).evaluate():
    each class takes at most max_terms terms and is summed once for all
    branches of t (_branch_free), so a trinomial sums at most s * max_terms
    terms. terms_used counts the terms of the classes summed, each class's
    first included, and the status is the worst class status; a branch
    whose sum is not finite reads diverged. Converged and truncated values
    are Newton-polished against the trinomial (1e-12, 80 steps), and a
    polish that stalls puts ``polish stalled at residual r`` in the
    warnings; a diverged sum raises DivergenceError with the partial sum.
    A max_terms that is not an int of at least 1 raises ValueError.
    """
    _require_count("max_terms", max_terms)
    shared = _branch_free(t)
    total, status, terms_used = shared.branch_sum(shared.prefactors(k), max_terms)
    if status == "diverged":
        raise DivergenceError(
            f"series branch k={k} diverged after {terms_used} terms", total
        )
    p = shared.polynomial
    pre = scaled_residual(p, total)
    root, res, its, converged = polish(p, total, tol=1e-12, max_iter=80)
    warnings = [] if converged else [f"polish stalled at residual {res:.3e}"]
    return root, SeriesDiagnostics(status, terms_used, total, pre, res, its, warnings)


@lru_cache(maxsize=256)
def argument_modulus_constant(s: int, b: int) -> Fraction:
    """Exact modulus coefficient b^b (s-b)^(s-b) / s^s of the regrouped
    hypergeometric argument."""
    from fractions import Fraction

    if not 1 <= b < s:
        raise ValueError("need 1 <= b < s")
    return Fraction(b**b * (s - b) ** (s - b), s**s)


class PFQRootGroup(_Record):
    __slots__ = ("prefactor", "power_of_q", "params", "argument")

    def __init__(
        self,
        prefactor: complex,  # q-power excluded
        power_of_q: Fraction,
        params: PFQParams,
        argument: complex,
    ):
        self.prefactor = prefactor
        self.power_of_q = power_of_q
        self.params = params
        self.argument = argument


class PFQRootForm(_Record):
    """One trinomial root branch as a finite sum of pFq values: the sum over
    residue classes i of prefactor * q^power_of_q * pFq(params; argument),
    where groups[i] describes class i of its trinomial.
    """

    __slots__ = ("trinomial", "k", "groups")

    def __init__(self, trinomial: Trinomial, k: int, groups: list[PFQRootGroup]):
        self.trinomial = trinomial
        self.k = k
        self.groups = groups

    def evaluate(self, max_terms: int = MAX_TERMS) -> tuple[complex, str]:
        """The sum and the worst class status; a total that is not finite
        (a power of q or a class sum past the float range) reads diverged.
        The form evaluates its own trinomial's classes: class i is summed
        from its exact class steps (_BranchFree.class_sum), with at most
        max_terms terms, and each group gives only its prefactor. The class
        sums and powers of q do not depend on k: the branches of one
        trinomial object share them with each other and with the series
        root (_branch_free), so a loop over its s branches sums each class
        once. A form of another trinomial object sums its classes afresh. A
        max_terms that is not an int of at least 1 raises ValueError."""
        _require_count("max_terms", max_terms)
        prefactors = [g.prefactor for g in self.groups]
        return _branch_free(self.trinomial).branch_sum(prefactors, max_terms)[:2]


def trinomial_pfq_root(t: Trinomial, k: int) -> PFQRootForm:
    """Regroup the trinomial inverse-power series by residue class of the
    term index modulo s.

    Within one class the successive-term ratio is rational in the class
    counter, so each class is a single pFq; the shared argument is
    (-1)^(s-b) * b^b (s-b)^(s-b) / s^s * alpha^s / q^(s-b) (unit phase
    e^(2*pi*i*k*b) folded in). Parameters follow from the Gamma shift
    algebra in exact rational arithmetic, with upper/lower cancellation;
    they and each class's power of q depend on (s, b, class) alone and are
    built once (_class_params). They describe the classes: evaluate() steps
    each class by its exact class steps, which equal the parameters' steps
    times the argument. Only the prefactors' phases depend on k: the rest
    is worked out once for all branches of t (_branch_free).
    """
    shared = _branch_free(t)
    argument, classes = shared.pfq_parts()
    return PFQRootForm(t, k, [
        PFQRootGroup(prefactor, power, params, argument)
        for prefactor, (power, params) in zip(shared.prefactors(k), classes)
    ])


@lru_cache(maxsize=1024)
def _class_params(s: int, b: int, r0: int) -> tuple[Fraction, PFQParams]:
    """The exact power of q of residue class r0 (term indices n = r0 mod s)
    and its pFq parameters, from the Gamma shift algebra in exact rational
    arithmetic with upper/lower cancellation; the parameters are empty for
    a class whose first term sits on a reciprocal-Gamma pole (the whole
    class vanishes)."""
    from fractions import Fraction

    power = Fraction(1 + b * r0 - r0 * s, s)
    num2 = 1 + b * r0 + s - r0 * s
    if num2 % s == 0 and num2 <= 0:
        return power, PFQParams((), ())
    a0 = Fraction(1 + b * r0, s) + 1 - r0  # class-start denominator argument
    upper = [(Fraction(1 + b * r0, s) + i) / b for i in range(b)]
    upper += [(Fraction(tt) - a0) / (s - b) for tt in range(1, s - b + 1)]
    lower = [Fraction(r0 + j, s) for j in range(1, s + 1) if j != s - r0]
    upper_red, lower_red = _cancel_params(upper, lower)
    return power, PFQParams(
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
    """The roots of z^5 + alpha z - q = 0 by the series route:
    pipeline.solve(Trinomial(5, 1, -alpha, q), "series").

    A branch that diverges, or lands on another branch's root, leaves the
    report short, and pipeline.cross_check reads it as partial. q = 0 is
    outside the trinomial form and raises ValueError.
    """
    from .pipeline import solve

    return solve(Trinomial(5, 1, -alpha, q), "series")


def quadrinomial_series_root(
    w: Quadrinomial, max_terms: int = MAX_TERMS
) -> tuple[complex, SeriesDiagnostics]:
    """Series root of x^s + c x^r + alpha x - b = 0 near x = b/alpha.

    Term n is the binomial-Gamma closed form of the n-th inversion
    derivative: ((-1)^n) sum_j c^(n-j) / (j! (n-j)!) * alpha^(-n)
    * Gamma(mu+1)/Gamma(mu+2-n) * z^(mu+1-n) with mu = r n + (s-r) j,
    all evaluated at z = b/alpha. The stated convergence prechecks are
    advisory; sum_series decides. The polish and its stall warning are the
    trinomial series'. A max_terms that is not an int of at least 1 raises
    ValueError.
    """
    _require_count("max_terms", max_terms)
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

    total, terms_used, status = sum_series(z, map(term_at, count(1)), max_terms)
    if status == "diverged":
        raise DivergenceError(
            f"quadrinomial series diverged after {terms_used} terms", total
        )
    pre = scaled_residual(p, total)
    root, res, its, converged = polish(p, total, tol=1e-12, max_iter=80)
    warnings = [] if converged else [f"polish stalled at residual {res:.3e}"]
    return root, SeriesDiagnostics(status, terms_used, total, pre, res, its, warnings, notes)


def _septic_terms(
    z_in: complex, g1: complex, g2: complex, g3: complex
) -> Iterator[complex]:
    """Terms y_1, y_2, ... of the correction series: the coefficients in t
    of the root z_in + y(t) of g(z) + t z^7 = 0, read at t = 1, with g1, g2
    and g3 the Taylor coefficients of g at z_in. Term m solves

        g1 y_m + g2 [y^2]_m + g3 [y^3]_m + [(z_in + y)^7]_(m-1) = 0.

    The coefficient lists of y^2 and of (z_in + y)^j, j = 1..7, gain one
    entry a step, so y_m costs O(m). The powers start from z_in^j by
    repeated products, which overflow to inf where ** raises."""
    zy = [z_in]  # z_in + y, so zy[i] = y_i from i = 1 on
    sq = [0j]  # y^2
    pw = [[1.0 + 0j]] + [[] for _ in range(7)]  # (z_in + y)^j
    for m in count(1):
        k = m - 1
        for j in range(1, 8):
            lower = pw[j - 1]
            acc = 0j
            for i in range(min(len(lower), m)):
                if lower[i] != 0:
                    acc += lower[i] * zy[k - i]
            pw[j].append(acc)
        acc = 0j
        for i in range(1, m):
            if zy[i] != 0:
                acc += zy[i] * zy[m - i]
        sq.append(acc)
        cube = 0j
        for i in range(2, m):
            if sq[i] != 0:
                cube += sq[i] * zy[m - i]
        term = -(g2 * acc + g3 * cube + pw[7][k]) / g1
        zy.append(term)
        yield term


def adjacent_septic_root(
    c: complex, a: complex, b: complex, q: complex, max_terms: int = MAX_TERMS
) -> tuple[complex, SeriesDiagnostics]:
    """Root of x^7 + c x^3 + a x^2 + b x - q = 0 from the cubic-seeded series.

    The seed z_in is the branch-0 root that solve_closed gives for the
    adjacent cubic g = c z^3 + a z^2 + b z - q, polished on g; a cubic
    whose closed form overflows, or a seed whose residual on the septic
    does not stay finite, raises ConvergenceError. The correction
    series (_septic_terms) expands the full root in powers of the degree-7
    perturbation around that cubic; its first term is -z_in^7 / g'(z_in).
    sum_series sums at most min(max_terms, 40) terms. Experimental
    contract: the series improves the seed's residual, Newton polish
    supplies the final root. A sum whose residual exceeds the seed's, or
    is NaN, gives way to the seed and reads diverged. A max_terms that is
    not an int of at least 1 raises ValueError.
    """
    from .closedform import solve_closed

    _require_count("max_terms", max_terms)
    if c == 0:
        raise ValueError("adjacent method needs a nonzero x^3 coefficient")
    p = Polynomial([-q, b, a, c, 0, 0, 0, 1.0])
    g = Polynomial([-q, b, a, c])
    seed = next(e.root for e in solve_closed(g).roots if e.branch == 0)
    z_in = polish(g, seed, tol=1e-15, max_iter=30)[0]
    res_seed = scaled_residual(p, z_in)
    if not math.isfinite(res_seed):
        raise ConvergenceError(f"septic residual at the seed {z_in} overflowed")

    g1 = 3.0 * c * z_in * z_in + 2.0 * a * z_in + b
    warnings: list[str] = []
    if g1 == 0:
        warnings.append("vanishing cubic derivative at the seed; series skipped")
        value, terms_used, status = z_in, 0, "diverged"
    else:
        terms = _septic_terms(z_in, g1, 3.0 * c * z_in + a, c)
        value, terms_used, status = sum_series(z_in, terms, min(max_terms, 40))

    pre = scaled_residual(p, value)
    if not pre <= res_seed:
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

