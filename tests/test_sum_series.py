"""The one series stopping rule, numerics.sum_series: synthetic magnitude
sequences, and bit-for-bit agreement with the two loops it replaced on the
trinomial series and the plain pFq sum."""

import cmath
import itertools
import math
import re

from hypothesis import example, given, settings, strategies as st

from polysolve import DivergenceError, PFQParams, SeriesConfig, Trinomial
from polysolve import pfq_eval, trinomial_series_root
from polysolve.numerics import sum_series
from polysolve.series import argument_modulus_constant, trinomial_log_term


def _bits(z):
    z = complex(z)
    return (z.real.hex(), z.imag.hex())


class TestSyntheticSequences:
    def test_geometric_decay_converges(self):
        total, n, status = sum_series(1.0, (0.5**k for k in itertools.count(1)), 400, 1e-12)
        assert status == "converged"
        # 0.5^n <= 1e-12 * 2 first at n = 39 (1.8e-12)
        assert n == 39
        assert total == 2.0 - 0.5**39  # every partial sum is exact

    def test_growth_from_the_start_is_counted_from_term_16(self):
        total, n, status = sum_series(1.0, (2.0**k for k in itertools.count(1)), 400, 1e-12)
        # terms 16..23 each exceed the one before: the eighth growth ends it
        assert (status, n) == ("diverged", 23)
        assert total == 2.0**24 - 1

    def test_growth_after_term_16(self):
        def terms():
            for k in itertools.count(1):
                yield 0.5**k if k <= 30 else 0.5**30 * 2.0 ** (k - 30)

        _, n, status = sum_series(1.0, terms(), 400, 1e-15)
        assert (status, n) == ("diverged", 38)

    def test_a_broken_run_starts_over(self):
        # seven growths, one step down, seven more: never eight in a row
        def mags():
            level = 1.0
            for k in itertools.count(1):
                level *= 0.5 if k % 8 == 0 else 1.5
                yield level

        _, n, status = sum_series(1e6, mags(), 100, 1e-12)
        assert (status, n) == ("truncated", 100)

    def test_zigzag_decays_along_each_class(self):
        # within each period of 9 the magnitudes rise 8 times, while each
        # class n mod 9 decays: stride 9 reads convergence, stride 1 growth
        def zigzag():
            for k in itertools.count(1):
                yield 0.9**k * 3.0 ** (k % 9)

        total, n, status = sum_series(1.0, zigzag(), 2000, 1e-12, stride=9)
        assert status == "converged"
        assert all(0.9**k * 3.0 ** (k % 9) <= 1e-12 * abs(total) for k in range(n - 8, n + 1))
        _, _, status_1 = sum_series(1.0, zigzag(), 2000, 1e-12, stride=1)
        assert status_1 == "diverged"

    def test_convergence_waits_for_every_class(self):
        # class 1 of stride 2 decays slowly; a tiny class-0 term alone does
        # not stop the sum
        def terms():
            for k in itertools.count(1):
                yield 1e-20 if k % 2 == 0 else 0.8**k

        total, n, status = sum_series(1.0, terms(), 1000, 1e-12, stride=2)
        assert status == "converged"
        assert 0.8 ** (n - 1 if n % 2 == 0 else n) <= 1e-12 * abs(total)
        assert n > 100

    def test_zero_terms_are_skipped(self):
        # growth runs over the zeros in between, and zeros never converge
        def gapped():
            for k in itertools.count(1):
                yield 2.0**k if k % 2 else 0j

        _, n, status = sum_series(1.0, gapped(), 400, 1e-12)
        assert (status, n) == ("diverged", 31)  # odd terms 17, 19, ..., 31
        total, n, status = sum_series(1.0, itertools.chain([0.5], itertools.repeat(0j)), 50, 1e-12)
        assert (status, n, total) == ("truncated", 50, 1.5)

    def test_nan_reads_diverged_at_the_budget(self):
        total, n, status = sum_series(1.0, itertools.repeat(complex("nan")), 19, 1e-12)
        assert (status, n) == ("diverged", 19)
        assert math.isnan(total.real)

    def test_infinite_sum_is_diverged(self):
        total, n, status = sum_series(1.0, iter([1e308, 1e308, 1.0]), 10, 1e-12)
        assert (status, n) == ("diverged", 2)
        assert total == math.inf

    def test_iterator_that_runs_out_is_exact(self):
        for budget in (3, 10):
            total, n, status = sum_series(1.0, iter([0.5, 0.25]), budget, 1e-12)
            assert (status, n, total) == ("converged", 2, 1.75)
        assert sum_series(1.0, iter([]), 1, 1e-12) == (1.0, 0, "converged")

    def test_at_most_budget_terms_are_taken(self):
        taken = []

        def terms():
            for k in itertools.count(1):
                taken.append(k)
                yield 1.0

        assert sum_series(1.0, terms(), 5, 1e-12) == (6.0, 5, "truncated")
        assert taken == [1, 2, 3, 4, 5]

    def test_spent_budget(self):
        # a budget that ends where the terms do is spent all the same
        total, n, status = sum_series(1.0, iter([0.5, 0.25]), 2, 1e-12)
        assert (status, n, total) == ("truncated", 2, 1.75)
        total, n, status = sum_series(1.0, iter([0.5, 0.25]), 1, 1e-12)
        assert (status, n, total) == ("truncated", 1, 1.5)
        # the latest term still exceeds the sum: diverged
        total, n, status = sum_series(1.0, ((-3.0) ** k for k in itertools.count(1)), 5, 1e-12)
        assert (status, n, total) == ("diverged", 5, -182.0)
        assert sum_series(1.0, itertools.repeat(1.0), 0, 1e-12) == (1.0, 0, "truncated")


def _parent_trinomial_loop(t, k, cfg):
    """The per-class loop trinomial_series_root ran before sum_series, with
    its terms from trinomial_log_term: (sum, terms_used, status)."""
    s = t.s
    total = cmath.exp(cmath.log(t.q) / s + 2j * math.pi * k / s)
    prev_by_class = [None] * s
    growth_by_class = [0] * s
    recent = []
    terms_used = 0
    status = "truncated"
    for n in range(1, cfg.max_terms + 1):
        term = trinomial_log_term(t, k, n)
        total += term
        terms_used = n
        mag = abs(term)
        cls = n % s
        if mag == 0.0:
            continue
        if mag > 1e100:  # never reached in the domain below
            status = "diverged"
            break
        prev = prev_by_class[cls]
        if prev is not None:
            if mag > prev and n >= 16:
                growth_by_class[cls] += 1
                if growth_by_class[cls] >= 8:
                    status = "diverged"
                    break
            else:
                growth_by_class[cls] = 0
        prev_by_class[cls] = mag
        recent.append(mag)
        if len(recent) > s:
            recent.pop(0)
        if n >= s and max(recent) <= cfg.rel_tol * abs(total):
            status = "converged"
            break
    if status == "truncated":
        seen = [m for m in prev_by_class if m is not None]
        if seen and max(seen) > abs(total):
            status = "diverged"
    return _bits(total), terms_used, status


def _series_outcome(t, k, cfg):
    try:
        _, diag = trinomial_series_root(t, k, cfg)
    except DivergenceError as exc:
        used = int(re.search(r"after (\d+) terms", str(exc)).group(1))
        return _bits(exc.partial), used, "diverged"
    return _bits(diag.series_value), diag.terms_used, diag.status


@given(
    st.integers(2, 12).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s - 1))),
    st.floats(0.01, 3.0),  # the regrouped-argument modulus rho
    st.floats(0.2, 5.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.sampled_from([5, 20, 60, 400]),
)
@settings(max_examples=120, deadline=None)
def test_trinomial_matches_the_parent_loop(sb, rho, q_mod, q_arg, alpha_arg, max_terms):
    s, b = sb
    q = cmath.rect(q_mod, q_arg)
    alpha_mod = (rho * q_mod ** (s - b) / float(argument_modulus_constant(s, b))) ** (1.0 / s)
    t = Trinomial(s, b, cmath.rect(alpha_mod, alpha_arg), q)
    cfg = SeriesConfig(max_terms=max_terms)
    for k in range(s):
        assert _series_outcome(t, k, cfg) == _parent_trinomial_loop(t, k, cfg), (t, k)


def _parent_pfq_loop(params, z, cfg):
    """The plain-path loop of pfq_eval before sum_series:
    (sum, terms_used, status), plus the last term summed."""
    z = complex(z)
    terminate_at = None
    for a in params.upper:
        if a.imag == 0 and a.real <= 0 and a.real == math.floor(a.real):
            terminate_at = -int(a.real) if terminate_at is None else min(terminate_at, -int(a.real))

    def finished(total, used, status):
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            status = "diverged"
        return _bits(total), used, status

    total = 1.0
    term = 1.0
    prev_mag = 1.0
    growth = 0
    for n in range(cfg.max_terms - 1):
        if terminate_at is not None and n >= terminate_at:
            return finished(total, n + 1, "converged"), term
        num = 1.0
        for a in params.upper:
            num *= a + n
        den = n + 1.0
        for b in params.lower:
            den *= b + n
        term = term * num / den * z
        total += term
        mag = abs(term)
        if mag <= cfg.rel_tol * max(abs(total), 1e-300):
            return finished(total, n + 2, "converged"), term
        if n + 1 >= 16 and mag > prev_mag:
            growth += 1
            if growth >= 8:
                return (_bits(total), n + 2, "diverged"), term
        else:
            growth = 0
        prev_mag = mag
    ends = terminate_at is not None and terminate_at < cfg.max_terms
    return finished(total, cfg.max_terms, "converged" if ends else "truncated"), term


_param = st.one_of(
    st.floats(-6.0, 6.0).map(lambda x: round(x, 1)),
    st.integers(-6, 0).map(float),  # terminating upper parameters
)


@given(
    st.lists(_param, max_size=3),
    st.lists(st.floats(0.05, 6.0).map(lambda x: round(x, 2)), max_size=3),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.integers(1, 60) | st.just(400),
)
@example([1.0], [], 0j, 2)  # z = 0
@example([1.0], [], 0j, 1)
@example([-4.0], [], 1.0 + 0j, 5)  # terminates at the last term allowed
@example([1.0], [], -3.0 + 0j, 5)  # budget spent while the terms still grow
@settings(max_examples=400, deadline=None)
def test_plain_pfq_matches_the_parent_loop(upper, lower, z, max_terms):
    params = PFQParams(tuple(upper), tuple(lower))
    cfg = SeriesConfig(max_terms=max_terms)
    res = pfq_eval(params, z, cfg)
    want, last = _parent_pfq_loop(params, z, cfg)
    value, used, status = want
    # the differences on purpose: a spent budget whose last term still
    # exceeds the sum now reads diverged, as the trinomial series did; and
    # at z = 0 the series is its constant term, one term and converged,
    # where the parent summed the zero term 1 too (or read truncated when
    # max_terms left no room for it)
    if status == "truncated" and abs(last) > abs(complex(res.value)):
        status = "diverged"
    if z == 0:
        used, status = 1, "converged"
    assert (_bits(res.value), res.terms_used, res.status) == (value, used, status)
