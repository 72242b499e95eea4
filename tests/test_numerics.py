import math

import pytest
from hypothesis import example, given, settings, strategies as st

from polysolve import (
    PFQParams,
    PoleError,
    SeriesConfig,
    gamma_real,
    pfq_eval,
    pochhammer,
    principal_pow,
    recip_gamma_real,
)

from conftest import direct_pfq_sum

# frozen with mpmath.gamma('7.3') at 30 digits; the textbook limit-definition
# product at n=1000 is still 3e-2 off, far too slow-converging to use here
GAMMA_7_3 = 1271.42363366390927


class TestGammaReal:
    def test_one(self):
        assert abs(gamma_real(1.0) - 1.0) <= 1e-13

    def test_half_is_sqrt_pi(self):
        assert abs(gamma_real(0.5) - math.sqrt(math.pi)) <= 1e-13 * math.sqrt(math.pi)

    def test_7_3_matches_reference(self):
        assert abs(gamma_real(7.3) - GAMMA_7_3) <= 1e-12 * GAMMA_7_3

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_pole_raises(self, x):
        with pytest.raises(PoleError):
            gamma_real(x)

    def test_factorials(self):
        acc = 1.0
        for n in range(1, 20):
            acc *= n
            assert abs(gamma_real(n + 1.0) - acc) <= 1e-13 * acc

    def test_reflection_negative(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        ref = -2.0 * math.sqrt(math.pi)
        assert abs(gamma_real(-0.5) - ref) <= 1e-12 * abs(ref)

    def test_relative_error_contract_on_interval(self):
        # 1e-14 relative on [0.5, 171.5], swept against arbitrary precision;
        # Gamma(171.5) is 9.5e307, and past the float range it raises
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        x = 0.5
        while x <= 171.5:
            ref = float(mp.gamma(x))
            assert abs(gamma_real(x) - ref) <= 1e-14 * abs(ref), x
            x += 0.173
        with pytest.raises(OverflowError):
            gamma_real(171.7)

    def test_negative_non_integers_match_mpmath(self):
        # down to -170.5, where Gamma is -3.3e-308; the reflection must not
        # overflow on the way (Gamma(-150.5) is -4.5e-264)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for m in range(171):
            for frac in (0.5, 0.3, 0.9):
                x = -m - frac
                if x < -170.5:
                    continue
                ref = float(mp.gamma(x))
                assert abs(gamma_real(x) - ref) <= 1e-14 * abs(ref), x



class TestRecipGamma:
    @pytest.mark.parametrize("x", [0.0, -1.0, -3.0, -120.0])
    def test_exact_zero_at_poles(self, x):
        assert recip_gamma_real(x) == 0.0

    def test_two(self):
        assert abs(recip_gamma_real(2.0) - 1.0) <= 1e-13

    @given(st.floats(min_value=0.51, max_value=20.0))
    @settings(max_examples=300)
    def test_product_with_gamma_is_one(self, x):
        assert abs(recip_gamma_real(x) * gamma_real(x) - 1.0) <= 1e-12

    def test_deep_negative_non_integer(self):
        # 1/Gamma(-2.5) = sin(-2.5 pi) Gamma(3.5) / pi
        ref = math.sin(-2.5 * math.pi) * gamma_real(3.5) / math.pi
        assert abs(recip_gamma_real(-2.5) - ref) <= 1e-12 * abs(ref)

    def test_past_the_lanczos_overflow(self):
        # t ** (z + 0.5) in gamma_real overflows from about x = 143
        mp = pytest.importorskip("mpmath")
        for x in (150.0, 200.0):
            ref = float(mp.rgamma(x))  # 2.6e-261, and 2.5e-373 underflows to 0
            assert abs(recip_gamma_real(x) - ref) <= 1e-12 * ref
        assert recip_gamma_real(140.0) == 1.0 / gamma_real(140.0)


class TestPrincipalPow:
    def test_matches_python_complex_power(self):
        # CPython's complex ** float is the principal branch in polar form
        points = [3 + 4j, -2 + 0.5j, 0.3 - 1.7j, 1e-200 + 1e-200j, 1e100 - 2e100j]
        # both sides of the negative real axis
        points += [complex(-8.0, 0.0), complex(-8.0, -0.0), complex(-0.5, 1e-300)]
        for z in points:
            for e in (1.0 / 3.0, 0.5, 1.0 / 7.0, 2.5, -0.25):
                got = principal_pow(z, e)
                assert got == z**e, (z, e)

    def test_negative_axis_sides(self):
        assert principal_pow(complex(-8.0, 0.0), 1.0 / 3.0).imag > 0
        assert principal_pow(complex(-8.0, -0.0), 1.0 / 3.0).imag < 0
        assert abs(principal_pow(complex(-8.0, 0.0), 1.0 / 3.0) - (1 + 3**0.5 * 1j)) <= 1e-15

    def test_zero(self):
        for e in (1.0 / 3.0, 0.5, 2.5):
            assert principal_pow(0j, e) == 0j == 0j**e


class TestPochhammer:
    def test_rising_factorial(self):
        assert pochhammer(2, 3) == 24

    def test_empty_product(self):
        assert pochhammer(123.4 + 5j, 0) == 1

    def test_zero_factor(self):
        assert pochhammer(-1, 3) == 0

    @given(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200)
    def test_recurrence_exact(self, a, n):
        # identical left-to-right evaluation order makes this bit-exact
        assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


class TestPFQEval:
    def test_z_zero_is_one_exactly(self):
        res = pfq_eval(PFQParams((1.5, -2.25j), (0.75,)), 0.0)
        assert res.value == 1.0
        assert res.status == "converged"

    def test_exp_at_one(self):
        res = pfq_eval(PFQParams((), ()), 1.0)
        assert res.status == "converged"
        oracle = direct_pfq_sum((), (), 1.0)
        assert abs(res.value - oracle) <= 1e-12 * abs(oracle)
        assert abs(res.value - math.e) <= 1e-12 * math.e

    def test_2f1_log_value(self):
        cfg = SeriesConfig(max_terms=500, rel_tol=1e-15)
        res = pfq_eval(PFQParams((1, 1), (2,)), 0.5, cfg)
        oracle = direct_pfq_sum((1, 1), (2,), 0.5)
        assert abs(res.value - oracle) <= 1e-12 * abs(oracle)
        # equals -ln(0.5)/0.5
        assert abs(res.value - 1.3862943611198906) <= 1e-12

    @given(
        st.lists(
            st.complex_numbers(
                max_magnitude=5,
                allow_nan=False,
                allow_infinity=False,
                allow_subnormal=False,
            ),
            max_size=3,
        ),
        st.lists(
            st.complex_numbers(
                min_magnitude=0.1,
                max_magnitude=5,
                allow_nan=False,
                allow_infinity=False,
                allow_subnormal=False,
            ),
            max_size=2,
        ),
    )
    @settings(max_examples=100)
    # the first step's factor, 1 * 3.5e-114 * 2.3e-281, is below the
    # smallest double although term 50 (about 6e-288) is not
    @example(upper=[1 + 0j, 3.504767242094347e-114 + 0j, 2.2593718049646475e-281 + 0j],
             lower=[])
    def test_term_recurrence_matches_scratch(self, upper, lower):
        lower = [b if abs(b.imag) > 1e-9 or b.real > 0 else b + 6.0 for b in lower]
        z = 0.37 - 0.21j
        n = 50
        # term n from scratch through Pochhammer products
        num = 1.0 + 0j
        for a in upper:
            num *= pochhammer(a, n)
        den = 1.0 + 0j
        for b in lower:
            den *= pochhammer(b, n)
        t_scratch = num / den * z**n / math.factorial(n)
        # term n by running the recurrence on t = m * 2**e, renormalizing m
        # after every factor so that no partial product underflows
        m, e = 1.0 + 0j, 0
        for i in range(n):
            factors = [a + i for a in upper] + [1 / (b + i) for b in lower]
            for f in factors + [1 / (i + 1.0), z]:
                m *= f
                _, k = math.frexp(abs(m))
                m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))
                e += k
        t = complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
        assert abs(t - t_scratch) <= 1e-12 * max(abs(t_scratch), 1e-290)

    def test_negative_upper_terminates(self):
        res = pfq_eval(PFQParams((-3, 0.5), (0.25,)), 2.0)
        assert res.status == "converged"
        assert res.terms_used == 4  # terms 0..3; (-3)_4 = 0
        oracle = direct_pfq_sum((-3, 0.5), (0.25,), 2.0, terms=4)
        assert abs(res.value - oracle) <= 1e-12 * abs(oracle)
        # the last nonzero term is the last one max_terms allows
        for regularized in (False, True):
            res = pfq_eval(PFQParams((-4,), ()), 1.0, SeriesConfig(max_terms=5), regularized)
            assert (res.status, res.terms_used) == ("converged", 5)
            assert res.value == 1 - 4 + 6 - 4 + 1

    def test_lower_pole_raises(self):
        with pytest.raises(PoleError):
            pfq_eval(PFQParams((0.5,), (-2,)), 0.1)

    def test_upper_termination_beats_lower_pole(self):
        # upper -1 stops the series at n=1, before the lower pole at n=2
        res = pfq_eval(PFQParams((-1,), (-2,)), 0.3)
        assert res.status == "converged"
        assert abs(res.value - (1.0 + (-1.0) / (-2.0) * 0.3)) <= 1e-14

    def test_divergence_detected(self):
        res = pfq_eval(PFQParams((1, 1), (2,)), 1.5)
        assert res.status == "diverged"

    def test_truncation_status(self):
        res = pfq_eval(PFQParams((1,), ()), 0.999, SeriesConfig(max_terms=5))
        assert res.status == "truncated"
        assert res.terms_used == 5

    def test_overflowed_sum_is_diverged(self):
        # the stopping test inf <= rel_tol * inf holds; the sum is no value
        for params, z, regularized in [
            (PFQParams((1, 1), ()), 1e200, False),
            (PFQParams((-3, 1e200), ()), 1e200, False),  # terminating
            (PFQParams((1e200,), ()), 1e200, True),
            (PFQParams((1, 1), ()), 1e200, True),
            (PFQParams((-3, 1e200), ()), 1e200, True),
        ]:
            res = pfq_eval(params, z, regularized=regularized)
            assert res.status == "diverged", (params, regularized)
            assert not math.isfinite(abs(res.value))

    def test_nan_sum_is_diverged_not_truncated(self):
        cfg = SeriesConfig(max_terms=20)
        for regularized in (False, True):
            res = pfq_eval(PFQParams((1,), ()), complex("nan"), cfg, regularized)
            assert res.status == "diverged"
            assert res.terms_used == 20

    def test_regularized_matches_rescaled(self):
        plain = pfq_eval(PFQParams((1.3,), (0.7,)), 0.4)
        regu = pfq_eval(PFQParams((1.3,), (0.7,)), 0.4, regularized=True)
        assert plain.status == regu.status == "converged"
        rescaled = plain.value * recip_gamma_real(0.7)
        assert abs(regu.value - rescaled) <= 1e-11 * abs(rescaled)

    def test_long_regularized_sum_is_truncated(self):
        # past n = 170, n! no longer converts to a float; the sum must not care
        plain = pfq_eval(PFQParams((1,), ()), 0.99)
        regu = pfq_eval(PFQParams((1,), ()), 0.99, regularized=True)
        assert plain.status == regu.status == "truncated"
        # both paths sum max_terms terms, the constant one included
        assert plain.terms_used == regu.terms_used == 400
        assert abs(plain.value - regu.value) <= 1e-12
        # terms 0.99^n for n < 400
        assert abs(regu.value - (1 - 0.99**400) / 0.01) <= 1e-11

    def test_regularized_past_the_gamma_overflow(self):
        # the sum runs past n = 170, where (0.5)_n (1.5)_n / n! overflows a
        # float and 1/Gamma(2.5 + n) underflows; their product does neither
        params = PFQParams((0.5, 1.5), (2.5,))
        plain = pfq_eval(params, 0.9)
        regu = pfq_eval(params, 0.9, regularized=True)
        assert plain.status == regu.status == "converged"
        assert regu.terms_used == plain.terms_used > 171
        rescaled = plain.value / gamma_real(2.5)
        assert abs(regu.value - rescaled) <= 1e-12 * abs(rescaled)

    def test_regularized_at_lower_pole_is_finite(self):
        # lower parameter -1: 1/Gamma(-1+n) kills terms n <= 1
        res = pfq_eval(PFQParams((0.5,), (-1,)), 0.2, regularized=True)
        assert res.status == "converged"
        assert res.value != 0
