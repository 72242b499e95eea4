import cmath
import itertools
import math
import operator
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polysolve import (
    ConvergenceError,
    DivergenceError,
    Polynomial,
    Quadrinomial,
    Trinomial,
    adjacent_septic_root,
    all_roots_oracle,
    argument_modulus_constant,
    bring_jerrard_quintic,
    cross_check,
    match_roots,
    quadrinomial_series_root,
    scaled_residual,
    solve,
    solve_cubic,
    trinomial_pfq_root,
    trinomial_series_root,
)
from polysolve import series
from polysolve.series import (
    _cancel_params,
    _class_params,
    _ROW_CAP,
    _covering_row,
    _gamma_part,
    _ratio,
    _term_table,
    trinomial_log_term,
)
from polysolve.numerics import PFQParams, gamma_sign, pfq_eval, sum_series
from polysolve.poly import MAX_TERMS

from conftest import bisect_root, seeded_trinomial

PHI = 1.618033988749895  # bisection oracle for x^2 - x - 1 on [1, 2]
X5P_ROOT = 0.7548776662466927  # x^5 + x - 1 on [0, 1]


class TestTrinomialSeries:
    def test_alpha_zero_binomial(self):
        t = Trinomial(5, 2, 0, 2 + 1j)
        for k in range(5):
            root, diag = trinomial_series_root(t, k)
            expected = cmath.exp(cmath.log(2 + 1j) / 5 + 2j * math.pi * k / 5)
            assert abs(root - expected) <= 1e-12

    def test_golden_ratio(self):
        oracle = bisect_root(lambda x: x * x - x - 1, 1.0, 2.0)
        assert abs(oracle - PHI) <= 1e-12
        root, diag = trinomial_series_root(Trinomial(2, 1, 1, 1), 0)
        assert diag.status == "converged"
        assert abs(root - PHI) <= 1e-10

    def test_x5_plus_x_minus_1(self):
        oracle = bisect_root(lambda x: x**5 + x - 1, 0.0, 1.0)
        assert abs(oracle - X5P_ROOT) <= 1e-12
        root, diag = trinomial_series_root(Trinomial(5, 1, -1, 1), 0)
        assert abs(root - X5P_ROOT) <= 1e-10

    def test_gamma_pole_terms_are_exact_zero(self):
        # s=2, b=1: the denominator argument (3-n)/2 is a nonpositive
        # integer for every odd n >= 3
        t = Trinomial(2, 1, 1, 1)
        for n in (3, 5, 7, 9, 41):
            assert trinomial_log_term(t, 0, n) == 0
        t = Trinomial(7, 1, -1, 2)
        assert trinomial_log_term(t, 0, 6) == 0  # (8-6n)/7 integer at n=6

    def test_budget_is_per_class(self, rng):
        # max_terms counts the terms of each class n mod s, its first
        # included: at s = 12 and argument modulus 0.79 the classes take more
        # than max_terms terms together and converge, with the pFq form's
        # value; a budget of 30 cuts every class
        s, b = 12, 10
        q = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
        modulus = (0.79 * abs(q) ** (s - b) / float(argument_modulus_constant(s, b))) ** (1 / s)
        t = Trinomial(s, b, cmath.rect(modulus, rng.uniform(-math.pi, math.pi)), q)
        k = rng.randrange(s)
        root, diag = trinomial_series_root(t, k)
        value, status = trinomial_pfq_root(t, k).evaluate()
        assert diag.status == status == "converged"
        assert _bits(diag.series_value) == _bits(value)
        assert MAX_TERMS < diag.terms_used <= s * MAX_TERMS
        assert diag.residual <= 1e-12
        assert scaled_residual(t.polynomial(), root) <= 1e-12
        _, cut = trinomial_series_root(t, k, 30)
        assert (cut.status, cut.terms_used) == ("truncated", s * 30)

    def test_divergence_raises_with_partial(self):
        t = Trinomial(7, 1, -1, 0.5)  # argument modulus ~3.6
        with pytest.raises(DivergenceError) as exc:
            trinomial_series_root(t, 0)
        assert exc.value.partial is not None

    def test_branch_union_matches_oracle(self, rng):
        for _ in range(20):
            t = seeded_trinomial(rng)
            roots = [trinomial_series_root(t, k)[0] for k in range(t.s)]
            worst, _ = match_roots(roots, all_roots_oracle(t.polynomial()))
            assert worst <= 1e-8

    def test_converged_branches_have_small_residual(self, rng):
        p_residuals = []
        for _ in range(10):
            t = seeded_trinomial(rng)
            p = t.polynomial()
            for k in range(t.s):
                root, diag = trinomial_series_root(t, k)
                assert diag.residual <= 1e-10
                p_residuals.append(scaled_residual(p, root))
        assert max(p_residuals) <= 1e-10


class TestPFQRootForm:
    @pytest.mark.parametrize(
        "s,b,expected",
        [
            (5, 1, Fraction(256, 3125)),
            (5, 2, Fraction(108, 3125)),
            (5, 3, Fraction(108, 3125)),
            (6, 1, Fraction(3125, 46656)),
            (7, 1, Fraction(46656, 823543)),
            (7, 2, Fraction(12500, 823543)),
        ],
    )
    def test_reference_argument_constants(self, s, b, expected):
        assert argument_modulus_constant(s, b) == expected

    def test_constant_law_all_shapes(self):
        for s in range(2, 10):
            for b in range(1, s):
                assert argument_modulus_constant(s, b) == Fraction(
                    b**b * (s - b) ** (s - b), s**s
                )

    def test_argument_modulus_matches_law(self):
        t = Trinomial(5, 2, 0.3 + 0.1j, 1.1 - 0.2j)
        form = trinomial_pfq_root(t, 1)
        law = (
            float(argument_modulus_constant(5, 2))
            * abs(t.alpha) ** 5
            / abs(t.q) ** 3
        )
        for g in form.groups:
            assert abs(abs(g.argument) - law) <= 1e-12 * law

    def test_class0_parameters_s7_b1(self):
        # reduced 6F5 parameter lists for the first residue class
        form = trinomial_pfq_root(Trinomial(7, 1, 1, 1), 0)
        upper = sorted(u.real for u in form.groups[0].params.upper)
        lower = sorted(l.real for l in form.groups[0].params.lower)
        assert upper == pytest.approx(
            sorted([-1 / 42, 1 / 7, 13 / 42, 10 / 21, 9 / 14, 17 / 21]), abs=1e-15
        )
        assert lower == pytest.approx(
            sorted([2 / 7, 3 / 7, 4 / 7, 5 / 7, 6 / 7]), abs=1e-15
        )

    def test_class0_parameters_s5_b2(self):
        form = trinomial_pfq_root(Trinomial(5, 2, 1, 1), 0)
        upper = sorted(u.real for u in form.groups[0].params.upper)
        lower = sorted(l.real for l in form.groups[0].params.lower)
        assert upper == pytest.approx(sorted([-1 / 15, 1 / 10, 4 / 15, 3 / 5]), abs=1e-15)
        assert lower == pytest.approx(sorted([1 / 5, 2 / 5, 4 / 5]), abs=1e-15)

    def test_power_of_q_is_exact_rational(self):
        form = trinomial_pfq_root(Trinomial(6, 1, 0.4, 1.2), 2)
        for n0, g in enumerate(form.groups):
            assert g.power_of_q == Fraction(1 + n0, 6) - n0

    def test_regrouped_equals_direct_sum(self, rng):
        for _ in range(15):
            t = seeded_trinomial(rng)
            for k in range(t.s):
                form = trinomial_pfq_root(t, k)
                value, status = form.evaluate(600)
                assert status == "converged"
                direct = cmath.exp(cmath.log(t.q) / t.s + 2j * math.pi * k / t.s)
                for n in range(1, 400):
                    direct += trinomial_log_term(t, k, n)
                assert abs(value - direct) <= 1e-9 * max(abs(direct), 1e-12)

    def test_terminating_class_s2(self):
        # for s=2, b=1 the odd class is a single term: its pFq has upper 0
        form = trinomial_pfq_root(Trinomial(2, 1, 1, 1), 0)
        value, status = form.evaluate()
        assert abs(value - PHI) <= 1e-9

    @pytest.mark.parametrize("s", [*range(2, 13), 24])
    def test_class_steps_are_the_parameter_steps_times_the_argument(self, s):
        # evaluate steps class r0 by ratio[r0 + ms] alpha^s q^(b-s); over the
        # argument that is the step prod(a_i + m) / ((m+1) prod(b_j + m)) of
        # the parameters that the form reports for the class
        zeros = 0
        for b in range(1, s):
            # the argument over alpha^s q^(b-s)
            constant = (-1) ** (s - b) * float(argument_modulus_constant(s, b))
            for r0 in range(s):
                if _gamma_part(s, b, r0)[0] == 0.0:
                    continue  # the class vanishes, and has no parameters
                params = _class_params(s, b, r0)[1]
                upper, lower = params.upper, params.lower
                for m in range(64):
                    ratio = _ratio(s, b, r0 + m * s)
                    want = math.prod(a + m for a in upper) / (
                        (m + 1) * math.prod(l + m for l in lower))
                    got = ratio / constant
                    if -m in upper:  # the class ends: its step is exactly 0
                        assert ratio == 0.0, (s, b, r0, m)
                        zeros += 1
                    assert abs(got - want) <= 4e-15 * abs(want), (s, b, r0, m)
        assert zeros == 1  # class 1 of b = s - 1, one term: ratio[1] = 0

    def test_a_terminating_class_is_summed_without_its_zero_terms(self, monkeypatch):
        # ratio[1] = 0 for (s, b) = (5, 4): class 1 is its first term alone,
        # and no terms of it are read past that
        t = Trinomial(5, 4, cmath.rect(0.6, 0.3), cmath.rect(1.2, -0.7))
        assert _term_table(5, 4).ratio[1] == 0.0
        read = _counting_terms(monkeypatch)
        for k in range(t.s):
            form = trinomial_pfq_root(t, k)
            value, status = form.evaluate()
            assert status == "converged", k
            want = _direct_pfq_sum(form)[0]
            assert abs(value - want) <= 1e-12 * abs(want), k
        assert set(read) == {0, 2, 3, 4}  # every class but 1 reads its terms
        # class 1 alone, summed afresh: F_1 is its first term over itself
        assert series._branch_free(t).class_sum(1, MAX_TERMS) == (1.0, "converged", 1)

    def test_alpha_zero_binomial_form(self):
        form = trinomial_pfq_root(Trinomial(5, 2, 0, 2 + 1j), 3)
        value, status = form.evaluate()
        expected = cmath.exp(cmath.log(2 + 1j) / 5 + 6j * math.pi / 5)
        assert abs(value - expected) <= 1e-12

    def test_alpha_zero_with_a_q_power_past_the_float_range(self):
        # q^(b-s) = 1e900 is past the float range, and alpha^s = 0: the class
        # step is 0, not 0 * inf = nan, so both forms give the lead alone
        t = Trinomial(5, 2, 0, 1e-300)
        for k in range(t.s):
            lead = cmath.exp(cmath.log(1e-300) / 5 + 2j * math.pi * k / 5)
            value, status = trinomial_pfq_root(t, k).evaluate()
            assert status == "converged" and abs(value - lead) <= 1e-15 * abs(lead)
            root, diag = trinomial_series_root(t, k)
            assert (diag.status, diag.terms_used) == ("converged", 1)
            assert _bits(diag.series_value) == _bits(value)


@pytest.mark.parametrize("max_terms", [0, -1, 2.5, 400.0])
@pytest.mark.parametrize("call", ["trinomial", "pfq form", "quadrinomial", "septic"])
def test_max_terms_must_be_an_int_of_at_least_one(call, max_terms):
    # as pfq_eval and solve check it: 0 once summed no term and returned a
    # polished root, and 2.5 leaked islice's own message
    calls = {
        "trinomial": lambda n: trinomial_series_root(Trinomial(5, 1, 1, 1), 0, n),
        "pfq form": lambda n: trinomial_pfq_root(Trinomial(5, 1, 1, 1), 0).evaluate(n),
        "quadrinomial": lambda n: quadrinomial_series_root(Quadrinomial(7, 2, 0.1, 2, 0.5), n),
        "septic": lambda n: adjacent_septic_root(1, 4, 1, 1, n),
    }
    with pytest.raises(ValueError, match="max_terms must be an int >= 1"):
        calls[call](max_terms)
    calls[call](1)  # the least budget is taken


def _reference_class_params(s, b, r0):
    """Class parameters built per call in Fractions, as trinomial_pfq_root
    did before they were memoized."""
    num2 = 1 + b * r0 + s - r0 * s
    if num2 % s == 0 and num2 <= 0:
        return PFQParams((), ())
    a0 = Fraction(1 + b * r0, s) + 1 - r0
    upper = [(Fraction(1 + b * r0, s) + i) / b for i in range(b)]
    upper += [(Fraction(tt) - a0) / (s - b) for tt in range(1, s - b + 1)]
    lower = [Fraction(r0 + j, s) for j in range(1, s + 1) if j != s - r0]
    upper_red, lower_red = _cancel_params(upper, lower)
    return PFQParams(
        tuple(complex(float(u)) for u in upper_red),
        tuple(complex(float(l)) for l in lower_red),
    )


def _bits(z):
    return (complex(z).real.hex(), complex(z).imag.hex())


def _branch_outputs(t):
    """Every per-branch output of both trinomial forms, as exact bits."""
    out = []
    for k in range(t.s):
        try:
            root, d = trinomial_series_root(t, k)
            out.append((_bits(root), d.status, d.terms_used, _bits(d.series_value),
                        d.pre_polish_residual.hex(), d.residual.hex(), d.iterations))
        except DivergenceError as exc:
            out.append(("diverged", _bits(exc.partial)))
        form = trinomial_pfq_root(t, k)
        out.append([(_bits(g.prefactor), g.power_of_q, g.params, _bits(g.argument))
                    for g in form.groups])
        value, status = form.evaluate()
        out.append((_bits(value), status))
    return out


def _mpmath_gamma_part(mpmath, s, b, n):
    """Gamma((1+bn)/s) / (Gamma(x2) n! s) in mpmath: the part of term n
    that no branch or coefficient changes (0 at a pole of Gamma(x2))."""
    return (
        mpmath.gamma(mpmath.mpf(1 + b * n) / s)
        * mpmath.rgamma(mpmath.mpf(1 + b * n + s - n * s) / s)
        / (mpmath.factorial(n) * s)
    )


def _mpmath_power_part(mpmath, t, k, n):
    """alpha^n q^((1+bn-ns)/s) e^(2 pi i k (1+bn)/s) in mpmath, with the
    principal branch of log q."""
    s, b = t.s, t.b
    return (
        mpmath.power(mpmath.mpc(t.alpha), n)
        * mpmath.exp(mpmath.mpf(1 + b * n - n * s) / s * mpmath.log(mpmath.mpc(t.q)))
        * mpmath.expjpi(mpmath.mpf(2 * k * (1 + b * n)) / s)
    )


def _growing_rows():
    """A trinomial whose pFq classes (argument modulus 0.95) read ratio[n]
    past n = 801 at the default budget: past the first row of (3, 1), which
    holds n <= 400, and past its first growth."""
    modulus = (0.95 / float(argument_modulus_constant(3, 1))) ** (1 / 3)
    return Trinomial(3, 1, cmath.rect(modulus, 0.4), 1.0)


class TestTermMemo:
    """The memoized integer-only parts change no result."""

    def test_class_params_match_fraction_reference(self):
        for s in range(2, 17):
            for b in range(1, s):
                for r0 in range(s):
                    power, got = _class_params(s, b, r0)
                    want = _reference_class_params(s, b, r0)
                    assert power == Fraction(1 + b * r0 - r0 * s, s), (s, b, r0)
                    assert got.upper == want.upper, (s, b, r0)
                    assert got.lower == want.lower, (s, b, r0)

    def test_term_table_matches_direct_lgamma(self):
        _term_table.cache_clear()
        for s in range(2, 13):
            for b in range(1, s):
                table = _term_table(s, b)
                # the Gamma parts of terms 0..s, the first ratio row as built
                assert len(table.sign) == len(table.log_mag) == s + 1
                assert list(zip(table.sign, table.log_mag)) == [
                    _gamma_part(s, b, n) for n in range(s + 1)]
                ratio = table.ratio
                assert len(ratio) == 401
                for n in range(401):
                    sign, log_mag = _gamma_part(s, b, n)
                    # the class step, as exact rationals rounded once
                    x1 = Fraction(1 + b * n, s)
                    x2 = Fraction(1 + b * n + s - n * s, s)
                    step = math.prod(x1 + i for i in range(b))
                    step *= math.prod(x2 - j for j in range(1, s - b + 1))
                    step /= math.prod(range(n + 1, n + s + 1))
                    assert ratio[n] == float(step), (s, b, n)
                    num2 = 1 + b * n + s - n * s
                    if num2 % s == 0 and num2 <= 0:
                        assert sign == 0.0 and log_mag == 0.0, (s, b, n)
                        continue
                    assert sign == gamma_sign(x2), (s, b, n)
                    assert log_mag == (
                        math.lgamma((1 + b * n) / s)
                        - math.lgamma(x2)
                        - math.lgamma(n + 1)
                        - math.log(s)
                    ), (s, b, n)

    def test_terms_match_mpmath_terms(self, monkeypatch):
        # the terms that the class sums take, each times the first term of
        # its class, are the series' terms. (7, 1) and (12, 5) have
        # reciprocal-Gamma poles (n = 6 and 7 mod s); past term 400 + s the
        # class steps read the doubled table, and for s = 2 past 800 + s the
        # one doubled again, at argument modulus 0.97
        mpmath = pytest.importorskip("mpmath")
        taken = _recording_terms(monkeypatch)
        bound = 1e-12  # the log form reaches 6.9e-12 on these terms
        worst = {"recurrence": 0.0, "log form": 0.0}
        q = cmath.rect(1.1, 0.7)
        for s, b, stop, rho in [(2, 1, 1000, 0.97), (3, 2, 420, 0.95), (5, 2, 420, 0.95),
                                (7, 1, 420, 0.95), (12, 5, 420, 0.95), (12, 10, 420, 0.95)]:
            modulus = (rho * abs(q) ** (s - b) / float(argument_modulus_constant(s, b))) ** (1 / s)
            t = Trinomial(s, b, cmath.rect(modulus, -2.1), q)
            branches = {k: _class_terms(taken, t, k, stop) for k in (0, 1, s - 1)}
            with mpmath.workdps(40):
                for n in range(1, stop + 1):
                    gamma_part = _mpmath_gamma_part(mpmath, s, b, n)
                    for k, got in branches.items():
                        want = gamma_part * _mpmath_power_part(mpmath, t, k, n)
                        if want == 0:  # a reciprocal-Gamma pole, or a class that ended
                            assert got[n] == 0, (s, b, k, n)
                            continue
                        for name, term in (("recurrence", got[n]),
                                           ("log form", trinomial_log_term(t, k, n))):
                            err = abs(term - want) / abs(want)
                            worst[name] = max(worst[name], float(err))
        assert worst["recurrence"] <= bound
        assert worst["log form"] > bound  # the bound tells the two forms apart
        # alpha = 0: the lead alone, where every reference term is 0
        t = Trinomial(7, 1, 0, 1 + 1j)
        assert _class_terms(taken, t, 3, 1000)[1:] == [0j] * 1000
        assert taken == {}  # the lead ends after its first term
        assert all(trinomial_log_term(t, 3, n) == 0 for n in range(1, 1001))

    def test_cold_and_warm_results_equal(self, rng):
        trinomials = [seeded_trinomial(rng, s_max=9) for _ in range(12)]
        trinomials += [Trinomial(5, 2, 0, 2 + 1j), _growing_rows()]
        for cache in (_class_params, _term_table, argument_modulus_constant,
                      series._branch_free_memo):
            cache.cache_clear()
        cold = [_branch_outputs(t) for t in trinomials]
        warm = [_branch_outputs(t) for t in trinomials]
        assert cold == warm

    def test_series_value_matches_the_mpmath_sum(self, rng):
        # the 40-digit sum of the terms that each class took, class by class
        mpmath = pytest.importorskip("mpmath")
        cases = [(seeded_trinomial(rng, s_max=12, arg_cap=0.95), MAX_TERMS)
                 for _ in range(8)]
        # argument modulus 0.93: class 0 reads steps past the default row,
        # which holds ratio[n] for n <= 400
        alpha = cmath.rect((0.93 / float(argument_modulus_constant(2, 1))) ** 0.5, 0.3)
        cases.append((Trinomial(2, 1, alpha, 1.0), 800))
        checked = 0
        for t, max_terms in cases:
            s = t.s
            k_free = {}  # term n of branch 0 without its phase, for n >= 1
            for k in range(s):
                try:
                    _, diag = trinomial_series_root(t, k, max_terms)
                except DivergenceError:
                    continue
                # each live class's count, its first term included
                counts = _class_counts(t, max_terms)
                assert sum(counts.values()) == diag.terms_used
                with mpmath.workdps(40):
                    total = mpmath.mpc(0)
                    size = mpmath.mpf(0)
                    for i, count in counts.items():
                        for n in range(i, i + count * s, s):
                            if n == 0:
                                term = mpmath.root(mpmath.mpc(t.q), s) * mpmath.expjpi(mpmath.mpf(2 * k) / s)
                            else:
                                if n not in k_free:
                                    k_free[n] = _mpmath_gamma_part(mpmath, s, t.b, n) \
                                        * _mpmath_power_part(mpmath, t, 0, n)
                                term = k_free[n] * mpmath.expjpi(mpmath.mpf(2 * k * (1 + t.b * n)) / s)
                            total += term
                            size += abs(term)
                    err = abs(diag.series_value - total)
                assert err <= 1e-14 * size, (t, k)
                checked += 1
        assert diag.status == "converged"
        assert max(i + (count - 1) * s for i, count in counts.items()) > MAX_TERMS
        assert checked >= 30

    def test_concurrent_callers_see_whole_tables(self, rng):
        # the last trinomial's class sums grow its ratio row twice, while
        # the tables are cleared under them
        trinomials = [seeded_trinomial(rng, s_max=9) for _ in range(4)] + [_growing_rows()]
        want = [_branch_outputs(t) for t in trinomials]
        got: list = []
        stop = threading.Event()

        def clear():
            while not stop.is_set():
                for cache in (_class_params, _term_table, argument_modulus_constant,
                              series._branch_free_memo):
                    cache.cache_clear()

        def solve():
            got.append([_branch_outputs(t) for t in trinomials])

        clearer = threading.Thread(target=clear, daemon=True)
        workers = [threading.Thread(target=solve, daemon=True) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clearer.start()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        clearer.join(timeout=10)
        assert not clearer.is_alive()
        assert not any(w.is_alive() for w in workers)
        assert got == [want] * len(workers)

    def test_branches_leave_no_allocations_behind(self):
        # a branch's term chains must free what they allocate: with the
        # classes handed to zip(*...) as a generator, each branch left one
        # resized tuple in the tuple free lists, and the process grew
        trinomials = [Trinomial(s, 1 + s // 3, cmath.rect(0.3, 1.0 + s), cmath.rect(1.1, 0.4))
                      for s in range(2, 13)]

        def every_branch():
            for t in trinomials:
                for k in range(t.s):
                    trinomial_series_root(t, k)

        every_branch()  # fills the term tables
        before = sys.getallocatedblocks()
        for _ in range(5):
            every_branch()  # 385 branches
        assert sys.getallocatedblocks() - before <= 40

    def test_large_max_terms_builds_only_what_is_read(self):
        _term_table.cache_clear()
        t = Trinomial(5, 1, 0.1, 1.0)
        _, diag = trinomial_series_root(t, 0, 10**7)
        assert diag.status == "converged"
        assert trinomial_pfq_root(t, 0).evaluate(10**7)[1] == "converged"
        assert _term_table.cache_info().currsize == 1
        assert len(_covering_row(5, 1, 1)) == MAX_TERMS + 1

    def test_rows_stay_under_the_cap(self):
        _term_table.cache_clear()
        for s in range(2, 25):
            for b in range(1, s):
                modulus = (0.5 / float(argument_modulus_constant(s, b))) ** (1 / s)
                t = Trinomial(s, b, cmath.rect(modulus, 0.5), 1.0)
                trinomial_series_root(t, 0)
                trinomial_pfq_root(t, 0).evaluate()
                assert len(_term_table(s, b).ratio) <= _ROW_CAP, (s, b)
        # argument modulus 1 - 1e-5: a class that reads 10^5 steps stores
        # _ROW_CAP of them, and works the rest out as it reads them
        modulus = ((1 - 1e-5) / float(argument_modulus_constant(2, 1))) ** 0.5
        form = trinomial_pfq_root(Trinomial(2, 1, cmath.rect(modulus, 0.5), 1.0), 0)
        value, status = form.evaluate(10**5)
        assert len(_term_table(2, 1).ratio) == _ROW_CAP
        assert status == "truncated"
        want = _direct_pfq_sum(form, 10**5)
        assert want[1] == status and abs(value - want[0]) <= 1e-12 * abs(want[0])


def _counting(monkeypatch, name, index):
    """Count the calls of series' function name, as a list of each call's
    positional argument at index."""
    calls = []
    real = getattr(series, name)

    def counted(*args, **kwargs):
        calls.append(args[index])
        return real(*args, **kwargs)

    monkeypatch.setattr(series, name, counted)
    return calls


def _class_counts(t: Trinomial, max_terms: int) -> dict[int, int]:
    """The terms that each class of t that does not vanish takes under
    max_terms, its first included, summed afresh by class_sum."""
    shared = series._branch_free(t)
    return {i: shared.class_sum(i, max_terms)[2] for i, base in enumerate(shared.bases) if base}


def _counting_terms(monkeypatch):
    """A list that gets the class of each run of class terms that a class
    sum reads (_BranchFree._class_terms)."""
    calls = []
    real = series._BranchFree._class_terms

    def counted(self, i, *args):
        calls.append(i)
        return real(self, i, *args)

    monkeypatch.setattr(series._BranchFree, "_class_terms", counted)
    return calls


def _counting_class_sums(monkeypatch):
    """A list that gets (class, max_terms) of each class sum."""
    calls = []
    real = series._BranchFree.class_sum

    def counted(self, i, max_terms):
        calls.append((i, max_terms))
        return real(self, i, max_terms)

    monkeypatch.setattr(series._BranchFree, "class_sum", counted)
    return calls


def _recording_terms(monkeypatch):
    """A dict that gets, for each class that a class sum reads terms of,
    its terms T_0, T_1, ... in the order read (_BranchFree._class_terms):
    each run of terms starts at the last term read before it, and the first
    run of a converging class at T_1."""
    taken = {}
    real = series._BranchFree._class_terms

    def recording(self, i, start, stop, term):
        terms = list(real(self, i, start, stop, term))
        got = taken.setdefault(i, [1.0])
        got.extend(terms[len(got) - start:])
        return iter(terms)

    monkeypatch.setattr(series._BranchFree, "_class_terms", recording)
    return taken


def _class_terms(taken, t, k, stop):
    """Terms 0..stop of the branch-k series as its class sums give them,
    with the class terms recorded into taken (_recording_terms): term
    i + ms is the first term of class i, its prefactor times its power of
    q, times term m of the class sum; 0 where a class vanishes or has
    ended. The classes are summed afresh, with a budget that reaches term
    stop."""
    series._branch_free_memo.cache_clear()
    taken.clear()
    form = trinomial_pfq_root(t, k)
    form.evaluate(stop // t.s + 2)
    q_powers = series._branch_free(t).q_powers
    live = [i for i, g in enumerate(form.groups) if g.prefactor != 0]
    got = [0j] * (stop + 1)
    for i in live:
        first = form.groups[i].prefactor * q_powers[i]
        for n, term in zip(range(i, stop + 1, t.s), taken.get(i, [1.0])):
            got[n] = first * term
    return got


def _direct_pfq_sum(form, max_terms=MAX_TERMS):
    """The sum of a form from its groups alone, one pfq_eval call per class
    on the group's parameters and argument: the reference that evaluate,
    which steps each class by the exact class steps, must stay close to."""
    total = 0j
    status = "converged"
    log_q = cmath.log(form.trinomial.q)
    for g in form.groups:
        if g.prefactor == 0:
            continue
        res = pfq_eval(g.params, g.argument, max_terms)
        if res.status != "converged":
            status = res.status
        power = g.power_of_q.numerator / g.power_of_q.denominator
        try:
            q_power = cmath.exp(power * log_q)
        except OverflowError:
            q_power = complex(math.inf, 0.0)
        total += g.prefactor * q_power * res.value
    if not cmath.isfinite(total):
        status = "diverged"
    return total, status


def _trinomial_at(s, b, modulus, q=cmath.rect(1.1, 0.4), alpha_arg=1.0):
    """z^s - alpha z^b - q with argument modulus rho = modulus."""
    mod_alpha = (modulus * abs(q) ** (s - b) / float(argument_modulus_constant(s, b))) ** (1 / s)
    return Trinomial(s, b, cmath.rect(mod_alpha, alpha_arg), q)


def _mpmath_ratio(mpmath, s, b, n):
    """ratio[n] in mpmath, from the exact integers of _ratio."""
    num2 = 1 + b * n + s - n * s
    num = math.prod(range(1 + b * n, 1 + b * n + b * s, s))
    num *= math.prod(range(num2 - s, num2 - (s - b + 1) * s, -s))
    return mpmath.mpf(num) / (s**s * math.prod(range(n + 1, n + s + 1)))


class TestProvenTail:
    """Below the convergence boundary a class stops at a term count N whose
    tail bound |T_N| rho / (1 - rho) is within 1e-12 of the sum."""

    @pytest.mark.parametrize("modulus", [0.5, 0.8, 0.95])
    def test_the_tail_bound_holds_against_mpmath(self, modulus):
        # one class per (s, b), s <= 24, classes 0 .. s - 2 over b, at the
        # engine's own alpha^s q^(b-s): the 40-digit sum of the terms past
        # T_N is within the bound, the bound within 1e-12 of the sum, and
        # the engine's value within the bound and its rounding of the
        # 40-digit class sum. A class that needs more than MAX_TERMS terms
        # (116 of them at 0.95) is truncated, and its bound is indeed not met
        mpmath = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        converged = 0
        for s in range(2, 25):
            for b in range(1, s):
                shared = series._branch_free(_trinomial_at(s, b, modulus))
                i = next(i for i in range(b - 1, s) if shared.bases[i])
                value, status, used = shared.class_sum(i, MAX_TERMS)
                if used == 1:  # the class ends after its first term
                    assert shared.table.ratio[i] == 0.0, (s, b, i)
                    continue
                with mpmath.workdps(40):
                    step = mpmath.mpc(shared.step)
                    rho = abs(step) * mpmath.mpf(b**b * (s - b) ** (s - b)) / s**s
                    term = total = mpmath.mpc(1)
                    rounding = mpmath.mpf(used)
                    for m in range(1, used):
                        term *= _mpmath_ratio(mpmath, s, b, i + (m - 1) * s) * step
                        total += term
                        rounding += abs(term) * (2 * m + used)
                    bound = abs(term) * rho / (1 - rho)
                    if status == "truncated":
                        assert used == MAX_TERMS and bound > 1e-12 * abs(total), (s, b, i)
                        continue
                    assert status == "converged", (s, b, i)
                    converged += 1
                    tail, m = mpmath.mpc(0), used
                    while abs(term) > 1e-6 * bound:
                        term *= _mpmath_ratio(mpmath, s, b, i + (m - 1) * s) * step
                        tail += term
                        m += 1
                    # the rest, below 1e-6 of the bound, at its geometric rate
                    assert abs(tail) + abs(term) / (1 - rho) <= bound, (s, b, i)
                    assert bound <= 1e-12 * abs(total) * (1 + 1e-9), (s, b, i)
                    err = abs(value - (total + tail))
                    assert err <= bound + rounding * eps, (s, b, i)
        assert converged == {0.5: 275, 0.8: 275, 0.95: 160}[modulus]  # and (3, 2) ends

    def test_past_the_boundary_a_class_keeps_sum_series_verdict(self):
        # argument modulus 1.2: each class is sum_series' over its terms,
        # with the verdicts and counts it read before the tail bound
        t = _trinomial_at(7, 3, 1.2)
        shared = series._branch_free(t)
        live = [i for i, base in enumerate(shared.bases) if base]
        assert live == [0, 1, 3, 4, 5, 6]
        for max_terms, want in ((MAX_TERMS, ("diverged", 24)), (10, ("truncated", 10))):
            for i in live:
                value, status, used = shared.class_sum(i, max_terms)
                steps = (_ratio(7, 3, i + m * 7) for m in itertools.count())
                terms = itertools.accumulate(
                    map(operator.mul, steps, itertools.repeat(shared.step)),
                    operator.mul, initial=1.0)
                total, taken, verdict = sum_series(next(terms), terms, max_terms - 1)
                assert (_bits(value), status, used) == (_bits(total), verdict, taken + 1)
                assert (status, used) == want, (i, max_terms)

    def test_the_shape_tables_hold_no_more(self):
        # one series solve per (s, b), s <= 12, at argument modulus 0.8: the
        # bytes of the per-shape term tables, as the engine that stopped by
        # sum_series' rule held them (674,112)
        _term_table.cache_clear()
        for s in range(2, 13):
            for b in range(1, s):
                report = solve(_trinomial_at(s, b, 0.8), "series")
                assert len(report.roots) == s, (s, b)
        tables = [_term_table(s, b) for s in range(2, 13) for b in range(1, s)]
        assert _term_table.cache_info().currsize == len(tables)
        held = sum(sys.getsizeof(a) for t in tables for a in (t.sign, t.log_mag, t.ratio))
        assert held <= 674_112


class TestBranchSharing:
    """The s branches of one trinomial share its k-free parts, and nothing
    else: each pFq output stays what its branch computed alone, and each
    series branch turns the one sum of branch 0's classes by its phases."""

    @pytest.mark.parametrize("s", [5, 12, 24])
    def test_each_class_is_summed_once_for_all_branches(self, monkeypatch, s):
        t = Trinomial(s, 1 + s // 3, cmath.rect(0.3, 1.0), cmath.rect(1.1, 0.4))
        groups = trinomial_pfq_root(t, 0).groups
        classes = [i for i, g in enumerate(groups) if g.prefactor != 0]
        calls = _counting_class_sums(monkeypatch)
        for k in range(s):
            trinomial_pfq_root(t, k).evaluate()
        assert calls == [(i, MAX_TERMS) for i in classes]
        calls.clear()
        solve(t.polynomial(), "pfq")  # the pipeline's route, on a trinomial of its own
        assert calls == [(i, MAX_TERMS) for i in classes]

    @pytest.mark.parametrize("s", [5, 12, 24])
    def test_the_series_is_summed_once_for_all_branches(self, monkeypatch, s):
        # each class once for all branches, and the pFq branches of the
        # same trinomial read the same sums
        t = Trinomial(s, 1 + s // 3, cmath.rect(0.3, 1.0), cmath.rect(1.1, 0.4))
        groups = trinomial_pfq_root(t, 0).groups
        classes = [i for i, g in enumerate(groups) if g.prefactor != 0]
        calls = _counting_class_sums(monkeypatch)
        for k in range(s):
            trinomial_series_root(t, k)
        for k in range(s):
            trinomial_pfq_root(t, k).evaluate()
        assert calls == [(i, MAX_TERMS) for i in classes]
        calls.clear()
        report = solve(t.polynomial(), "series")  # a trinomial of its own
        assert len(report.roots) == s
        assert calls == [(i, MAX_TERMS) for i in classes]

    def test_branch_order_changes_no_value(self):
        t = Trinomial(12, 5, cmath.rect(0.4, 2.0), cmath.rect(0.9, -1.0))
        outputs = []
        for order in (range(t.s), reversed(range(t.s))):
            series._branch_free_memo.cache_clear()
            outputs.append({k: repr(trinomial_series_root(t, k)) for k in order})
        assert outputs[0] == outputs[1]

    def test_a_new_max_terms_sums_anew(self, monkeypatch):
        # 74 terms to converge, in the 4 classes that do not vanish
        t = Trinomial(5, 2, 1.6 + 0.3j, 1.0 + 0.5j)
        sums = _counting_class_sums(monkeypatch)
        verdicts = []
        for max_terms in (MAX_TERMS, 10, 10, MAX_TERMS):
            got = {(d.terms_used, d.status)
                   for d in (trinomial_series_root(t, k, max_terms)[1] for k in range(t.s))}
            verdicts.append(got)
        assert [budget for _, budget in sums] == [MAX_TERMS] * 4 + [10] * 4 + [MAX_TERMS] * 4
        full, cut = {(71, "converged")}, {(40, "truncated")}
        assert verdicts == [full, cut, cut, full]

    def test_every_branch_of_a_diverging_series_raises(self, monkeypatch):
        t = Trinomial(5, 1, 1e6, 1)  # argument modulus about 8e28
        sums = _counting(monkeypatch, "sum_series", 2)
        partials = []
        for k in range(t.s):
            with pytest.raises(DivergenceError) as exc:
                trinomial_series_root(t, k)
            partials.append(exc.value.partial)
        assert len(sums) == 4  # once per class; class 4 of (5, 1) vanishes
        assert len(set(partials)) == t.s  # each branch raises with its own sum

    def test_one_branch_sums_one_stream(self, monkeypatch):
        # the basin plot solves branch 0 alone, at every grid point: each
        # solve sums each class once, one run of steps each (class 3 of
        # (7, 2) vanishes)
        calls = _counting_class_sums(monkeypatch)
        for alpha in (0.2, 0.3j):
            report = solve(Trinomial(7, 2, alpha, 1.5), "series", [0])
            assert [e.branch for e in report.roots] == [0]
        assert calls == [(i, MAX_TERMS) for i in (0, 1, 2, 4, 5, 6)] * 2

    def test_the_memo_carries_nothing_from_one_trinomial_to_another(self, monkeypatch):
        a = Trinomial(5, 2, 0.3 + 0.1j, 1.0 + 0.5j)
        b = Trinomial(7, 3, 0.2, 1.1)
        calls = _counting_class_sums(monkeypatch)
        counts = []
        for t in (a, b, a, Trinomial(5, 2, 0.3 + 0.1j, 1.0 + 0.5j)):
            before = len(calls)
            for k in range(t.s):
                trinomial_pfq_root(t, k).evaluate()
            counts.append(len(calls) - before)
        # a again, and an equal trinomial of its own, sum their classes anew
        assert counts[0] == counts[2] == counts[3] > 0 and counts[1] > 0

    def test_equal_trinomials_keep_their_own_logs(self):
        # q = -1 + 0j and q = -1 - 0j are equal, but their principal logs
        # are +pi i and -pi i: each keeps its own branch numbering
        plus = Trinomial(3, 1, 0.2, complex(-1.0, 0.0))
        minus = Trinomial(3, 1, 0.2, complex(-1.0, -0.0))
        assert plus == minus
        series._branch_free_memo.cache_clear()
        cold = [_branch_outputs(plus)]
        series._branch_free_memo.cache_clear()
        cold.append(_branch_outputs(minus))
        assert cold[0] != cold[1]
        assert [_branch_outputs(plus), _branch_outputs(minus)] == cold

    def test_pfq_values_match_direct_class_sums(self, rng):
        # each value within 1e-12 of the sum from the groups' parameters,
        # over 1 - rho below the convergence boundary: that sum stops by
        # sum_series' rule, once a term is within 1e-12 of it, and leaves a
        # tail of up to rho / (1 - rho) times that term. The same status;
        # and, as the branches share their class sums, the same bits as the
        # branch evaluated alone
        trinomials = [seeded_trinomial(rng, s_max=12) for _ in range(10)]
        trinomials += [Trinomial(24, 7, cmath.rect(0.3, 1.0), cmath.rect(1.1, 0.4)),
                       Trinomial(5, 2, 0, 2 + 1j), Trinomial(5, 1, 1e60, 1)]
        finite = 0
        for t in trinomials:
            for max_terms in (MAX_TERMS, 30):  # a new budget sums anew
                got = [trinomial_pfq_root(t, k).evaluate(max_terms) for k in range(t.s)]
                for k in range(t.s):
                    form = trinomial_pfq_root(t, k)
                    (value, status), (want, want_status) = got[k], _direct_pfq_sum(form, max_terms)
                    assert status == want_status, (t, k, max_terms)
                    if cmath.isfinite(want):
                        rho = series._branch_free(t).rho
                        tail = 1.0 - rho if rho < 1.0 else 1.0
                        assert abs(value - want) <= 1e-12 * abs(want) / tail, (t, k, max_terms)
                        finite += 1
                    else:  # 1e60: past the float range on both sides
                        assert not cmath.isfinite(value), (t, k, max_terms)
                    series._branch_free_memo.cache_clear()
                    alone = form.evaluate(max_terms)
                    assert repr(alone) == repr(got[k]), (t, k, max_terms)
        assert finite >= 2 * sum(t.s for t in trinomials[:-1])

    def test_first_terms_match_the_log_form(self, rng):
        # terms 1..s-1 are the classes' first terms, each group's prefactor
        # times its power of q. (7, 1) and (12, 5) have reciprocal-Gamma
        # poles among them; alpha = 1e20 at s = 24 takes the later ones past
        # the float range
        trinomials = [seeded_trinomial(rng, s_max=12) for _ in range(10)]
        trinomials += [Trinomial(7, 1, 0.4 - 0.2j, 1.3j), Trinomial(12, 5, -0.3, 0.9),
                       Trinomial(24, 7, 1e20, 1), Trinomial(24, 7, 0.3j, -2.0)]
        past = 0
        for t in trinomials:
            q_powers = series._branch_free(t).q_powers
            for k in range(t.s):
                groups = trinomial_pfq_root(t, k).groups
                for n in range(1, t.s):
                    got = groups[n].prefactor * q_powers[n]
                    want = series._inf_on_overflow(trinomial_log_term, t, k, n)
                    if want == 0:
                        assert got == 0, (t, k, n)
                    elif not cmath.isfinite(want):
                        assert not cmath.isfinite(got), (t, k, n)
                        past += 1
                    else:
                        # the log form rounds exponents of up to about 1000
                        # (the phase, at s = 24): about 1e-13 relative
                        assert abs(got - want) <= 1e-12 * abs(want), (t, k, n)
        assert past > 0
        t = Trinomial(6, 2, 0, 1 - 1j)  # alpha = 0: only the lead, each log term 0
        for k in range(t.s):
            assert [g.prefactor != 0 for g in trinomial_pfq_root(t, k).groups] == [True] + [False] * 5
            assert all(trinomial_log_term(t, k, n) == 0 for n in range(1, t.s + 1))


@given(
    st.integers(2, 12).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s - 1))),
    st.floats(0.0, 0.8),  # the argument modulus
    st.floats(0.2, 5.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
@settings(max_examples=40, deadline=None)
def test_the_series_is_the_pfq_sum_and_matches_mpmath(sb, rho, q_mod, q_arg, alpha_arg):
    # on every branch the series' value before its polish is the pFq
    # form's, bit for bit, with its status. Both are within 1e-12 of the
    # 40-digit sum of the terms that the classes took, and within 1e-11 of
    # the root: a class stops at a term of 1e-12 |F_i|, and its tail adds up
    # to about 1e-12 |F_i| rho / (1 - rho) more (5e-12 of the root seen)
    mpmath = pytest.importorskip("mpmath")
    s, b = sb
    q = cmath.rect(q_mod, q_arg)
    alpha_mod = (rho * q_mod ** (s - b) / float(argument_modulus_constant(s, b))) ** (1 / s)
    t = Trinomial(s, b, cmath.rect(alpha_mod, alpha_arg), q)
    values = []
    for k in range(s):
        _, diag = trinomial_series_root(t, k)
        value, status = trinomial_pfq_root(t, k).evaluate()
        assert (_bits(diag.series_value), diag.status) == (_bits(value), status), k
        assert status == "converged", k
        values.append(value)
    counts = _class_counts(t, MAX_TERMS)
    with mpmath.workdps(40):
        # class i of branch 0 as summed; branch k turns it by its phase
        classes = {}
        for i, count in counts.items():
            total = mpmath.mpc(0)
            for n in range(i, i + count * s, s):
                if n == 0:  # the lead
                    total += mpmath.root(mpmath.mpc(t.q), s)
                else:
                    total += _mpmath_gamma_part(mpmath, s, b, n) * _mpmath_power_part(mpmath, t, 0, n)
            classes[i] = total
        for k, value in enumerate(values):
            want = sum((mpmath.expjpi(mpmath.mpf(2 * k * (1 + b * i)) / s) * c
                        for i, c in classes.items()), mpmath.mpc(0))
            assert abs(value - want) <= 1e-12 * abs(want), k
            root = mpmath.findroot(
                lambda z: z**s - mpmath.mpc(t.alpha) * z**b - mpmath.mpc(t.q), want)
            assert abs(value - root) <= 1e-11 * abs(root), k


@pytest.mark.parametrize("alpha", [4.445517498970155e-162, 1e-161j, -1.2e-160])
def test_a_subnormal_argument_modulus_sums_one_term_a_class(alpha):
    # rho = |alpha^2| / 4 is subnormal, so 1e-12 / rho overflows: the class
    # count may not start from its log (math.ceil of an infinity raised
    # OverflowError); the tail after the first term underflows instead
    t = Trinomial(2, 1, alpha, 1)
    for k in range(t.s):
        root, diag = trinomial_series_root(t, k)
        value, status = trinomial_pfq_root(t, k).evaluate()
        assert (_bits(diag.series_value), diag.status) == (_bits(value), status)
        assert status == "converged" and diag.terms_used <= 2 * t.s
        assert abs(root - (1, -1)[k]) <= 1e-15


class TestBringJerrard:
    def test_alpha_zero(self):
        report = bring_jerrard_quintic(0, 32)
        expected = [2 * cmath.exp(2j * math.pi * k / 5) for k in range(5)]
        worst, _ = match_roots(report, expected)
        assert worst <= 1e-10

    def test_contains_real_root(self):
        report = bring_jerrard_quintic(1, 1)
        assert min(abs(r - X5P_ROOT) for r in report.values()) <= 1e-10

    def test_q_zero_fallback(self):
        # q = 0 is outside the trinomial form, and there is no oracle fallback
        with pytest.raises(ValueError, match="q != 0"):
            bring_jerrard_quintic(-1, 0)

    def test_collided_branches_filled_from_oracle(self, monkeypatch):
        # branch 1 lands on branch 0's root: nothing fills the gap, the
        # report is short and reads partial
        real = series.trinomial_series_root
        monkeypatch.setattr(
            series, "trinomial_series_root",
            lambda t, k, *rest: real(t, 0 if k == 1 else k, *rest),
        )
        report = bring_jerrard_quintic(1, 1)
        p = Polynomial([-1, 1, 0, 0, 0, 1])
        assert len(report.roots) == 4
        assert any("5 branches gave 4 distinct roots" in w for w in report.warnings)
        assert cross_check(p, report, 1e-8) == "partial"
        assert -1 not in [e.branch for e in report.roots]
        assert 1 not in [e.branch for e in report.roots]

    def test_always_five_roots(self, rng):
        # the series route's report, field for field: five roots that match
        # the oracle, or a short report that reads partial (the second draw
        # diverges on every branch)
        statuses = []
        for _ in range(10):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            report = bring_jerrard_quintic(alpha, q)
            assert report == solve(Trinomial(5, 1, -alpha, q), "series")
            assert report.method == "series-trinomial"
            assert -1 not in [e.branch for e in report.roots]
            p = Polynomial([-q, alpha, 0, 0, 0, 1])
            status = cross_check(p, report, 1e-7)
            statuses.append(status)
            if status == "ok":
                assert len(report.roots) == 5
                worst, _ = match_roots(report, all_roots_oracle(p))
                assert worst <= 1e-7
            else:
                assert status == "partial"
        assert statuses[1] == "partial"
        assert statuses.count("ok") == 9


class TestOverflow:
    def test_terms_past_the_float_range_read_diverged(self):
        # a term whose exp overflows is infinite, and the sum reads diverged
        for t in (Trinomial(5, 1, 1e60, 1), Trinomial(3, 1, 1e200, 1)):
            for k in range(t.s):
                with pytest.raises(DivergenceError):
                    trinomial_series_root(t, k)
        with pytest.raises(DivergenceError):
            quadrinomial_series_root(Quadrinomial(7, 2, 1e50, 1, 1e10))


@pytest.mark.parametrize("engine, max_terms", [
    # two terms of z^5 - 1e6 z - 1 lie near 1e40, the roots at 31.6 and 1e-6
    (lambda m: trinomial_series_root(Trinomial(5, 1, 1e6, 1), 0, m), 2),
    # the first term of x^7 + 5x^2 + 0.01x - 100 is 1e4, the roots near 1.9
    (lambda m: quadrinomial_series_root(Quadrinomial(7, 2, 5, 0.01, 100), m), 1),
])
def test_a_stalled_polish_is_in_the_warnings(engine, max_terms):
    root, diag = engine(max_terms)
    assert diag.status == "truncated"
    assert diag.warnings == [f"polish stalled at residual {diag.residual:.3e}"]
    assert diag.residual > 1e-12


class TestQuadrinomialSeries:
    def test_b_zero_gives_origin(self):
        root, diag = quadrinomial_series_root(Quadrinomial(7, 2, 0.3, 1.0, 0.0))
        assert root == 0

    def test_c_zero_reduces_to_trinomial_root(self):
        w = Quadrinomial(7, 2, 0, 1, 0.5)
        root, diag = quadrinomial_series_root(w)
        oracle = all_roots_oracle(Polynomial([-0.5, 1, 0, 0, 0, 0, 0, 1]))
        assert min(abs(root - e.root) for e in oracle.roots) <= 1e-10

    def test_seeded_instance(self):
        w = Quadrinomial(7, 2, 0.1, 2, 0.5)
        root, diag = quadrinomial_series_root(w)
        assert diag.status == "converged"
        assert scaled_residual(w.polynomial(), root) <= 1e-10
        oracle = all_roots_oracle(w.polynomial())
        assert min(abs(root - e.root) for e in oracle.roots) <= 1e-8

    def test_prechecks_reported(self):
        w = Quadrinomial(7, 2, 0.1, 2, 0.5)
        _, diag = quadrinomial_series_root(w)
        assert diag.notes["precheck_cb_over_alpha2"] < 1
        assert diag.notes["precheck_tail"] < 1

    def test_generalized_shape(self):
        w = Quadrinomial(6, 3, 0.2, 1.5, 0.4)
        root, diag = quadrinomial_series_root(w)
        assert scaled_residual(w.polynomial(), root) <= 1e-10


class TestAdjacentSeptic:
    def test_reference_regime(self):
        # x^7 + x^3 + 4x^2 + x - 1: the series value must beat the cubic
        # seed's residual and stay below 1e-2 before polishing
        root, diag = adjacent_septic_root(1, 4, 1, 1)
        p = Polynomial([-1, 1, 4, 1, 0, 0, 0, 1])
        seed_res = abs(p(diag.notes["seed"]))
        series_res = abs(p(diag.series_value))
        assert series_res <= 1e-2
        assert series_res < seed_res
        assert seed_res <= 1.5e-2  # same order as the quoted approach level
        oracle = all_roots_oracle(p)
        assert min(abs(root - e.root) for e in oracle.roots) <= 1e-8

    def test_seed_is_branch_zero_root_of_cubic(self, rng):
        cases = [(1, 4, 1, 1), (1, 5, 2, 0.5), (2, -1, 3, 1 + 1j)]
        cases += [
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
            for _ in range(10)
        ]
        for c, a, b, q in cases:
            _, diag = adjacent_septic_root(c, a, b, q)
            cubic = solve_cubic(Polynomial([-q, b, a, c])).roots
            r0 = next(e.root for e in cubic if e.branch == 0)
            seed = diag.notes["seed"]
            assert abs(seed - r0) <= 1e-12 * (1 + abs(r0)), (c, a, b, q)
            assert all(abs(seed - e.root) > 1e-6 for e in cubic if e.branch != 0)

    def test_q_zero_origin_branch(self):
        root, diag = adjacent_septic_root(1, 1, 1, 0)
        assert abs(root) <= 1e-10

    def test_seeded_matches_oracle(self):
        root, diag = adjacent_septic_root(1, 5, 2, 0.5)
        p = Polynomial([-0.5, 2, 5, 1, 0, 0, 0, 1])
        oracle = all_roots_oracle(p)
        assert min(abs(root - e.root) for e in oracle.roots) <= 1e-8

    def test_requires_cubic_term(self):
        with pytest.raises(ValueError):
            adjacent_septic_root(0, 1, 1, 1)

    @staticmethod
    def _eager_terms(z_in, g1, g2, g3, order=40):
        """y_1..y_order the direct way: each m recomputes the truncated
        products of y from scratch. The running-list generator must match
        it bit for bit."""

        def mul(a, b, n):
            out = [0j] * (n + 1)
            for i, av in enumerate(a):
                if av == 0:
                    continue
                for j, bv in enumerate(b):
                    if i + j > n:
                        break
                    out[i + j] += av * bv
            return out

        y = [0j] * (order + 1)
        for m in range(1, order + 1):
            y2 = mul(y, y, m)
            y3 = mul(y2, y, m)
            zy = y[:]
            zy[0] = zy[0] + z_in
            pw = [1.0 + 0j]
            for _ in range(7):
                pw = mul(pw, zy, m)
            y[m] = -(g2 * y2[m] + g3 * y3[m] + pw[m - 1]) / g1
        return y[1:]

    def test_terms_match_the_eager_build(self, rng):
        cases = [(1, 4, 1, 1), (1, 5, 2, 0.5), (2, -1, 3, 1 + 1j), (1, 1, 1, 0)]
        cases += [
            tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
            for _ in range(20)
        ]
        for c, a, b, q in cases:
            z_in = adjacent_septic_root(c, a, b, q)[1].notes["seed"]
            g = (3.0 * c * z_in * z_in + 2.0 * a * z_in + b, 3.0 * c * z_in + a, c)
            got = list(itertools.islice(series._septic_terms(z_in, *g), 40))
            assert list(map(repr, got)) == list(map(repr, self._eager_terms(z_in, *g)))

    def test_overflowed_sum_reads_diverged(self):
        # the seed 1e40 has a finite residual, but the second term of the
        # correction series overflows
        _, diag = adjacent_septic_root(1, 0, 0, 1e120)
        assert diag.status == "diverged"
        assert diag.notes["seed_residual"] == 1.0

    def test_overflowed_seed_residual_raises(self):
        # the seed is 1e50 and its seventh power overflows to inf
        with pytest.raises(ConvergenceError):
            adjacent_septic_root(1, 0, 0, 1e150)

