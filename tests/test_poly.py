import cmath
import math
import random

import pytest

from polysolve import (
    ConvergenceError,
    DegenerateError,
    Polynomial,
    all_roots_oracle,
    brauer_rd,
    cauchy_bound,
    eval_poly,
    eval_poly_and_deriv,
    match_roots,
    newton_polish,
    polish,
    parse_poly,
    poly_from_roots,
    scaled_residual,
    sylvester_resultant,
    tschirnhaus_quadratic,
)
from polysolve.poly import format_poly, lu_solve

from conftest import bisect_root, unit_disk_poly

SQRT2 = 1.4142135623730951  # bisection oracle on [1, 2], checked in-test
X5_ROOT = 0.7548776662466927  # bisection oracle on [0, 1] for x^5 + x - 1


class TestEval:
    def test_simple_values(self):
        p = Polynomial([-1, 0, 1])
        assert eval_poly(p, 1) == 0
        assert eval_poly(p, 0) == -1

    def test_hand_arithmetic(self):
        p = Polynomial([1, 2, 0, 3])
        assert eval_poly(p, 2) == 29

    def test_derivative_pair(self):
        p = Polynomial([1, 2, 0, 3])  # p' = 2 + 9x^2
        v, d = eval_poly_and_deriv(p, 2.0)
        assert v == 29
        assert d == 38

    def test_constructor_trims_leading_zeros(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1


class TestCauchyBound:
    def test_x2_minus_1(self):
        assert cauchy_bound(Polynomial([-1, 0, 1])) == 2.0

    def test_pure_power(self):
        assert cauchy_bound(Polynomial([0, 0, 0, 1])) == 1.0

    def test_bound_encloses_factored_roots(self):
        # x^2 - 5x + 6 = (x-2)(x-3); formula value is 1 + 6 = 7
        p = Polynomial([6, -5, 1])
        bound = cauchy_bound(p)
        assert bound == 7.0
        for root in (2.0, 3.0):
            assert abs(root) <= bound

    def test_all_oracle_roots_inside_bound(self):
        rng = random.Random(500)
        for _ in range(500):
            deg = rng.randint(1, 12)
            p = unit_disk_poly(rng, deg, monic=False)
            bound = cauchy_bound(p)
            try:
                report = all_roots_oracle(p)
            except ConvergenceError as exc:
                report = exc.best
            for e in report.roots:
                assert abs(e.root) <= bound * (1 + 1e-9)


def _two_pass_newton(p, x0, tol=1e-12, max_iter=60):
    """Reference Newton loop: a value-and-derivative Horner pass, then
    scaled_residual, at every iterate. newton_polish must match it bit for
    bit."""
    x = complex(x0)
    best = (x, scaled_residual(p, x), 0)
    if best[1] <= tol:
        return best
    for it in range(1, max_iter + 1):
        fx, dfx = eval_poly_and_deriv(p, x)
        if dfx == 0:
            x += 1e-8 * (1.0 + abs(x))
            continue
        x = x - fx / dfx
        res = scaled_residual(p, x)
        if res < best[1]:
            best = (x, res, it)
        if res <= tol:
            return x, res, it
    raise ConvergenceError("stalled", best)


def _newton_outcome(fn, *args):
    """repr of what a Newton loop returned or raised; repr tells signed
    zeros and NaNs apart."""
    try:
        return repr(("returned", fn(*args)))
    except ConvergenceError as exc:
        return repr(("stalled", exc.best))


class TestNewtonPolish:
    def test_sqrt2(self):
        oracle = bisect_root(lambda x: x * x - 2, 1.0, 2.0)
        assert abs(oracle - SQRT2) < 1e-12
        root, res, its = newton_polish(Polynomial([-2, 0, 1]), 1.4)
        assert abs(root - SQRT2) <= 1e-12
        assert res <= 1e-12

    def test_linear_one_step(self):
        root, res, its = newton_polish(Polynomial([-5, 1]), 0.0)
        assert root == 5
        assert its == 1

    def test_exact_root_no_movement(self):
        root, res, its = newton_polish(Polynomial([-1, 0, 1]), 1.0)
        assert root == 1.0
        assert its == 0

    def test_stall_raises_with_best(self):
        # tol below what doubles can reach: must raise, best iterate attached
        with pytest.raises(ConvergenceError) as exc:
            newton_polish(Polynomial([-2, 0, 1]), 1.4, tol=1e-30, max_iter=10)
        best_root, best_res, _ = exc.value.best
        assert abs(best_root - SQRT2) <= 1e-12
        assert best_res <= 1e-14

    def test_matches_two_pass_reference(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        coeff = st.complex_numbers(
            max_magnitude=1e3, allow_nan=False, allow_infinity=False
        )

        @given(
            st.lists(coeff, min_size=1, max_size=10),
            coeff,
            st.sampled_from([1e-12, 1e-10, 1e-30]),
            st.integers(1, 40),
        )
        @example([-1, 0, 1], 0j, 1e-12, 60)  # p'(0) = 0: the perturbation
        @example([-2, 0, 1], 1.4, 1e-30, 10)  # a stall: compare exc.best
        @settings(max_examples=300, deadline=None)
        def check(coeffs, x0, tol, max_iter):
            p = Polynomial(coeffs)
            args = (p, x0, tol, max_iter)
            assert _newton_outcome(newton_polish, *args) == _newton_outcome(
                _two_pass_newton, *args
            )

        check()

    def test_polish_returns_flag_instead_of_raising(self):
        p = Polynomial([-2, 0, 1])
        assert polish(p, 1.4) == (*newton_polish(p, 1.4), True)
        with pytest.raises(ConvergenceError) as exc:
            newton_polish(p, 1.4, tol=1e-30, max_iter=10)
        assert polish(p, 1.4, tol=1e-30, max_iter=10) == (*exc.value.best, False)


class TestOracle:
    def test_x2_minus_1(self):
        report = all_roots_oracle(Polynomial([-1, 0, 1]))
        worst, _ = match_roots(report, [-1.0, 1.0])
        assert worst <= 1e-10

    def test_cube_roots_of_unity(self):
        report = all_roots_oracle(Polynomial([-1, 0, 0, 1]))
        expected = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        worst, _ = match_roots(report, expected)
        assert worst <= 1e-10

    def test_x5_plus_x_minus_1_contains_real_root(self):
        oracle_root = bisect_root(lambda x: x**5 + x - 1, 0.0, 1.0)
        assert abs(oracle_root - X5_ROOT) < 1e-12
        report = all_roots_oracle(Polynomial([-1, 1, 0, 0, 0, 1]))
        assert min(abs(e.root - X5_ROOT) for e in report.roots) <= 1e-10

    def test_reexpansion_matches_coefficients(self):
        rng = random.Random(7)
        for _ in range(50):
            p = unit_disk_poly(rng, rng.randint(2, 8))
            report = all_roots_oracle(p)
            q = poly_from_roots(report.values())
            for a, b in zip(q.coeffs, p.coeffs):
                assert abs(a - b) <= 1e-6 * (1 + abs(b))

    def test_roots_sorted(self):
        report = all_roots_oracle(Polynomial([-1, 0, 0, 0, 1]))
        keys = [(e.root.real, e.root.imag) for e in report.roots]
        assert keys == sorted(keys)


class TestResultant:
    def test_common_root_is_zero(self):
        p = Polynomial([-1, 1])
        assert sylvester_resultant(p, p) == 0

    def test_product_formula(self):
        # lc^n lc^m prod(r_i - s_j) = 1 - (-1) = 2
        value = sylvester_resultant(Polynomial([-1, 1]), Polynomial([1, 1]))
        assert abs(value - 2) <= 1e-14

    def test_complex_common_root(self):
        value = sylvester_resultant(Polynomial([1, 0, 1]), Polynomial([-1j, 1]))
        assert abs(value) <= 1e-14

    def test_multiplicativity(self):
        rng = random.Random(31)
        for _ in range(40):
            p = unit_disk_poly(rng, rng.randint(1, 4), monic=False)
            q1 = unit_disk_poly(rng, rng.randint(1, 4), monic=False)
            q2 = unit_disk_poly(rng, rng.randint(1, 4), monic=False)
            lhs = sylvester_resultant(p, q1 * q2)
            rhs = sylvester_resultant(p, q1) * sylvester_resultant(p, q2)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_shared_factor_vanishes(self):
        rng = random.Random(77)
        for _ in range(25):
            g = unit_disk_poly(rng, rng.randint(1, 2))
            u = unit_disk_poly(rng, rng.randint(1, 2))
            v = unit_disk_poly(rng, rng.randint(1, 2))
            value = sylvester_resultant(g * u, g * v)
            scale = max(max(abs(c) for c in (g * u).coeffs),
                        max(abs(c) for c in (g * v).coeffs)) ** 8
            assert abs(value) <= 1e-8 * max(1.0, scale)


class TestLUSolve:
    def test_solution_and_determinant(self):
        rng = random.Random(515)
        a = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)] for _ in range(5)]
        x_true = [complex(k, -k) for k in range(5)]
        b = [sum(a[i][k] * x_true[k] for k in range(5)) for i in range(5)]
        det, x = lu_solve(a, b)
        assert max(abs(u - v) for u, v in zip(x, x_true)) <= 1e-10
        # scaling one row scales the determinant; a row swap flips its sign
        det2, _ = lu_solve([[2 * v for v in a[0]]] + a[1:])
        assert abs(det2 - 2 * det) <= 1e-12 * abs(det)
        det3, _ = lu_solve([a[1], a[0]] + a[2:])
        assert abs(det3 + det) <= 1e-12 * abs(det)

    def test_singular(self):
        det, x = lu_solve([[1, 2], [2, 4]], [1, 1])
        assert det == 0 and x is None

    def test_arguments_untouched(self):
        a, b = [[0, 1], [1, 0]], [3, 4]
        assert lu_solve(a, b) == (-1, [4, 3])
        assert a == [[0, 1], [1, 0]] and b == [3, 4]


class TestTschirnhaus:
    def test_x5_minus_1_principal(self):
        out, a1, a2 = tschirnhaus_quadratic(Polynomial([-1, 0, 0, 0, 0, 1]))
        assert abs(out.coeffs[4]) <= 1e-10
        assert abs(out.coeffs[3]) <= 1e-10

    def test_random_quintics_root_mapping(self):
        rng = random.Random(42)
        for _ in range(20):
            p = unit_disk_poly(rng, 5)
            out, a1, a2 = tschirnhaus_quadratic(p)
            assert abs(out.coeffs[4]) <= 1e-10
            assert abs(out.coeffs[3]) <= 1e-10
            for e in all_roots_oracle(p).roots:
                w = e.root * e.root + a1 * e.root + a2
                assert abs(eval_poly(out, w)) <= 1e-8 * max(
                    1.0, sum(abs(c) * abs(w) ** i for i, c in enumerate(out.coeffs))
                )

    def test_already_principal_input(self):
        p = Polynomial([0.3, -0.7, 1.1, 0, 0, 1])  # zero x^4, x^3 terms
        out, a1, a2 = tschirnhaus_quadratic(p)
        assert abs(out.coeffs[4]) <= 1e-10
        assert abs(out.coeffs[3]) <= 1e-10
        for e in all_roots_oracle(p).roots:
            w = e.root * e.root + a1 * e.root + a2
            assert abs(eval_poly(out, w)) <= 1e-8 * max(1.0, abs(w) ** 5)

    def test_bring_jerrard_input_is_degenerate(self):
        # x^5 + ax + b has p1 = p2 = p3 = 0 but p4 != 0: no quadratic
        # transform can null both target coefficients
        with pytest.raises(DegenerateError):
            tschirnhaus_quadratic(Polynomial([-1, -1, 0, 0, 0, 1]))

    def test_rejects_non_quintic(self):
        with pytest.raises(Exception):
            tschirnhaus_quadratic(Polynomial([1, 1, 1, 1, 1]))


class TestBrauerRD:
    @pytest.mark.parametrize(
        "n,rd_max,r",
        [(5, 1, 4), (6, 2, 4), (7, 2, 5), (9, 4, 5), (25, 19, 6), (121, 114, 7)],
    )
    def test_reference_rows(self, n, rd_max, r):
        row = brauer_rd(n)
        assert (row.rd_max, row.r) == (rd_max, r)

    def test_rule_consistency(self):
        row = brauer_rd(8)
        assert math.factorial(row.r - 2) + 1 <= 8
        assert math.factorial(row.r - 1) + 1 > 8
        assert row.rd_max == 8 - row.r

    def test_monotone_r(self):
        rs = [brauer_rd(n).r for n in range(5, 200)]
        assert rs == sorted(rs)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            brauer_rd(4)


class TestMatchRoots:
    def test_identical(self):
        worst, _ = match_roots([1.0, -1.0], [1.0, -1.0])
        assert worst == 0.0

    def test_order_insensitive(self):
        worst, _ = match_roots([1.0, -1.0], [-1.0, 1.0])
        assert worst == 0.0

    def test_small_perturbation(self):
        worst, _ = match_roots([1.0], [1.0 + 1e-9])
        assert abs(worst - 1e-9) <= 1e-15

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            match_roots([1.0], [1.0, 2.0])


class TestTextFormat:
    def test_parse_example(self):
        p = parse_poly("1, 0, -2+0.5i, 1")
        assert p.coeffs == (1, 0, -2 + 0.5j, 1)

    def test_round_trip(self):
        p = Polynomial([1.5, -2 + 0.5j, 0, 1])
        assert parse_poly(format_poly(p)).coeffs == p.coeffs

    def test_bare_imaginary(self):
        assert parse_poly("i, 1").coeffs == (1j, 1)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("1, spam")

    def test_rejects_non_finite(self):
        for bad in ("nan", "-nan", "1e400", "1+nanj", "inf"):
            with pytest.raises(ValueError):
                parse_poly(f"1, {bad}")

    def test_round_trip_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        finite = st.complex_numbers(
            max_magnitude=1e6, allow_nan=False, allow_infinity=False
        )

        @given(st.lists(finite, min_size=1, max_size=8))
        @settings(max_examples=200)
        def check(coeffs):
            p = Polynomial(coeffs)
            assert parse_poly(format_poly(p)).coeffs == p.coeffs

        check()
