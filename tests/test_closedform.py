import cmath
import math
import random

import pytest

from polysolve import (
    ConvergenceError,
    DegreeError,
    Polynomial,
    SquareDifferenceSplit,
    all_roots_oracle,
    cross_check,
    match_roots,
    poly_from_roots,
    scaled_residual,
    solve_by_split,
    solve_closed,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
    square_difference_split,
)
from polysolve import closedform, grim
from polysolve.poly import lu_solve

from conftest import unit_disk_poly


def _vieta_ok(p: Polynomial, roots, tol=1e-8) -> bool:
    n = p.degree
    total = sum(roots)
    prod = 1.0 + 0j
    for r in roots:
        prod *= r
    sum_ref = -p.coeffs[n - 1] / p.coeffs[n]
    prod_ref = (-1) ** n * p.coeffs[0] / p.coeffs[n]
    return (
        abs(total - sum_ref) <= tol * (1 + abs(sum_ref))
        and abs(prod - prod_ref) <= tol * (1 + abs(prod_ref))
    )


def _clustered_poly(rng: random.Random, degree: int) -> Polynomial:
    """Monic, with its roots in pairs 1e-3 apart."""
    roots = []
    for _ in range(degree // 2):
        z = cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))
        roots += [z, z + cmath.rect(1e-3, rng.uniform(-math.pi, math.pi))]
    return poly_from_roots(roots)


def _real_poly(rng: random.Random, degree: int) -> Polynomial:
    return Polynomial([rng.uniform(-1, 1) for _ in range(degree)] + [1.0])


def _wide_scale_poly(rng: random.Random, degree: int) -> Polynomial:
    """Monic, other coefficient moduli log-uniform in [1e-6, 1e6]."""
    return Polynomial(
        [
            cmath.rect(10.0 ** rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi))
            for _ in range(degree)
        ]
        + [1.0]
    )


class TestQuadratic:
    def test_x2_minus_1(self):
        worst, _ = match_roots(solve_quadratic(Polynomial([-1, 0, 1])), [1.0, -1.0])
        assert worst <= 1e-14

    def test_x2_plus_1(self):
        worst, _ = match_roots(solve_quadratic(Polynomial([1, 0, 1])), [1j, -1j])
        assert worst <= 1e-14

    def test_factored(self):
        worst, _ = match_roots(solve_quadratic(Polynomial([2, -3, 1])), [1.0, 2.0])
        assert worst <= 1e-14

    def test_degree_guard(self):
        with pytest.raises(DegreeError):
            solve_quadratic(Polynomial([1, 1]))


class TestCubic:
    def test_roots_of_unity(self):
        expected = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        worst, _ = match_roots(solve_cubic(Polynomial([-1, 0, 0, 1])), expected)
        assert worst <= 1e-12

    def test_contains_one(self):
        report = solve_cubic(Polynomial([-2, 1, 0, 1]))
        assert min(abs(r - 1) for r in report.values()) <= 1e-12

    def test_contains_three(self):
        report = solve_cubic(Polynomial([-9, -6, 0, 1]))
        assert min(abs(r - 3) for r in report.values()) <= 1e-12

    def test_trigonometric_branch_three_real(self):
        # (x-1)(x-2)(x-3): negative discriminant quantity, all roots real
        report = solve_cubic(Polynomial([-6, 11, -6, 1]))
        assert all(abs(r.imag) <= 1e-12 for r in report.values())
        worst, _ = match_roots(report, [1.0, 2.0, 3.0])
        assert worst <= 1e-10

    def test_non_monic(self):
        report = solve_cubic(Polynomial([-4, 2, 0, 2]))  # 2(x^3 + x - 2)
        assert min(abs(r - 1) for r in report.values()) <= 1e-12

    def test_roots_eight_decades_apart(self):
        # (x - 1e-8)(x - 1)(x - 1e8): the shift t = x + a2/3 puts 1e-8 and 1
        # near -3.3e7, and the t-cofactor's b1^2/4 - b0 cancels, so the
        # shifted formula alone gives 0.0944 and 0.9056. The cofactor of
        # the largest root in x gives both to rounding level.
        p = Polynomial([-1.0, 100000001.00000001, -100000001.00000001, 1.0])
        report = solve_cubic(p)
        worst, pairs = match_roots(report, [1e-8, 1.0, 1e8])
        for i, j in pairs:
            want = [1e-8, 1.0, 1e8][j]
            assert abs(report.values()[i] - want) <= 1e-12 * want
        assert all(e.residual <= 1e-13 for e in report.roots)
        assert cross_check(p, report, 1e-8) == "ok"


    @pytest.mark.parametrize(
        "roots",
        [
            [1e-12, 1.0, 1e12],
            [1e-15, 1e-3, 1e15],
            [-1e-12, 2e-12, 1e12],
            [1e-8, 1.0, 1e8],
            [1.0, 2.0, 3.0],
        ],
    )
    def test_roots_many_decades_apart(self, roots):
        # the shift by a2/3 leaves the smaller roots nothing but rounding
        # once the roots spread over 12 decades, and 8 cleanup steps cannot
        # reach them from there (0.5 +- 22.6i for the first). Deflating by
        # the largest root gives each root to rounding level of mpmath's
        # roots of the same float coefficients.
        mpmath = pytest.importorskip("mpmath")
        p = poly_from_roots(roots)
        report = solve_cubic(p)
        ref = _mpmath_roots(p, mpmath)
        _, pairs = match_roots(report, ref)
        for i, j in pairs:
            assert abs(report.values()[i] - ref[j]) <= 1e-15 * abs(ref[j]), (roots, report)
        assert all(e.residual <= 1e-15 for e in report.roots)

    def test_seeded_roots_over_24_decades(self):
        # root moduli 10^U(-12, 12), real with random signs or at uniform
        # angles: every root to 1e-14 of its own modulus
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(0xC0B1C)
        for i in range(60):
            roots = []
            for _ in range(3):
                modulus = 10 ** rng.uniform(-12, 12)
                if i % 2 == 0:
                    roots.append(complex(rng.choice((modulus, -modulus))))
                else:
                    roots.append(cmath.rect(modulus, rng.uniform(-math.pi, math.pi)))
            p = poly_from_roots(roots)
            report = solve_cubic(p)
            ref = _mpmath_roots(p, mpmath)
            _, pairs = match_roots(report, ref)
            for a, b in pairs:
                assert abs(report.values()[a] - ref[b]) <= 1e-14 * abs(ref[b]), (p, ref)

    def test_branches_stay_with_the_formula_roots(self):
        # (x + 2)(x + 1)(x - 1): the trigonometric formula labels -2, -1
        # and 1 as branches 1, 2 and 0. The deflation keeps -2 and replaces
        # the other two, and each replacement keeps the branch of the
        # formula root nearest it.
        report = solve_cubic(Polynomial([-2, -1, 2, 1]))
        branches = {e.branch: e.root for e in report.roots}
        for branch, root in ((1, -2), (2, -1), (0, 1)):
            assert abs(branches[branch] - root) <= 1e-15


def _mpmath_roots(p: Polynomial, mpmath) -> list[complex]:
    """mpmath's roots of p's float coefficients, to 40 digits."""
    with mpmath.workdps(40):
        ref = mpmath.polyroots(
            [mpmath.mpc(c.real, c.imag) for c in reversed(p.coeffs)],
            maxsteps=200, extraprec=200,
        )
    return [complex(r) for r in ref]


class TestQuartic:
    def test_fourth_roots_of_unity(self):
        expected = [1.0, -1.0, 1j, -1j]
        worst, _ = match_roots(solve_quartic(Polynomial([-1, 0, 0, 0, 1])), expected)
        assert worst <= 1e-10

    def test_biquadratic(self):
        expected = [1.0, -1.0, 2.0, -2.0]
        worst, _ = match_roots(solve_quartic(Polynomial([4, 0, -5, 0, 1])), expected)
        assert worst <= 1e-10

    def test_seeded_random_matches_oracle(self):
        rng = random.Random(404)
        for _ in range(50):
            p = unit_disk_poly(rng, 4)
            worst, _ = match_roots(solve_quartic(p), all_roots_oracle(p))
            assert worst <= 1e-8

    def test_quadruple_root_conditioning(self):
        report = solve_quartic(Polynomial([1, -4, 6, -4, 1]))
        assert all(abs(r - 1) <= 1e-4 for r in report.values())


class TestSolveClosed:
    def test_dispatch_by_degree(self, rng):
        assert solve_closed(Polynomial([2.0])).roots == []
        linear = solve_closed(Polynomial([3, 2]))
        assert linear.method == "closed-linear" and linear.values() == [-1.5]
        for degree, solver in ((2, solve_quadratic), (3, solve_cubic), (4, solve_quartic)):
            p = unit_disk_poly(rng, degree, monic=False)
            assert solve_closed(p) == solver(p)
        with pytest.raises(DegreeError):
            solve_closed(unit_disk_poly(rng, 5))

    def test_overflow_is_a_convergence_error(self):
        # x^3 - 1e200 x - 1 and x^4 - 1e100 x - 1: (alpha/3)^3 of the cubic
        # and of the quartic's resolvent overflows
        for p in (Polynomial([-1, -1e200, 0, 1]), Polynomial([-1, -1e100, 0, 0, 1])):
            with pytest.raises(ConvergenceError, match="closed form overflowed"):
                solve_closed(p)
        with pytest.raises(ConvergenceError, match="closed form overflowed"):
            square_difference_split(Polynomial([-1, -1e100, 0, 0, 1]))


def _wide_scale_roots(rng: random.Random, degree: int, real: bool) -> list[complex]:
    """degree roots of modulus 10^U(-4, 4), real with random signs or at
    uniform angles."""
    roots = []
    for _ in range(degree):
        modulus = 10 ** rng.uniform(-4, 4)
        if real:
            roots.append(complex(rng.choice((modulus, -modulus))))
        else:
            roots.append(cmath.rect(modulus, rng.uniform(-math.pi, math.pi)))
    return roots


@pytest.mark.parametrize("degree", [3, 4])
def test_wide_scale_roots_match_mpmath(degree):
    # each root to 1e-8 of its own modulus against mpmath's roots of the
    # same float coefficients, and the cross-check agrees
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(0xC0B1C + degree)
    for i in range(40):
        p = poly_from_roots(_wide_scale_roots(rng, degree, real=i % 2 == 0))
        with mpmath.workdps(40):
            ref = mpmath.polyroots(
                [mpmath.mpc(c.real, c.imag) for c in reversed(p.coeffs)],
                maxsteps=200, extraprec=100,
            )
        ref = [complex(r) for r in ref]
        report = solve_closed(p)
        _, pairs = match_roots(report, ref)
        for a, b in pairs:
            assert abs(report.values()[a] - ref[b]) <= 1e-8 * abs(ref[b]), (p, ref)
        assert cross_check(p, report, 1e-8) == "ok"


class TestVieta:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_seeded_instances(self, degree):
        solver = {2: solve_quadratic, 3: solve_cubic, 4: solve_quartic}[degree]
        rng = random.Random(degree)
        for _ in range(100):
            p = unit_disk_poly(rng, degree, monic=False)
            assert _vieta_ok(p, solver(p).values())


class TestSquareDifferenceSplit:
    def test_constructed_sextic(self):
        # (x^3 + 1)^2 - (x^2)^2 factors as (x^3 - x^2 + 1)(x^3 + x^2 + 1);
        # the split is not unique, so check validity plus root-set equality
        F = Polynomial([1, 0, 0, 2, -1, 0, 1])
        split = square_difference_split(F)
        assert split.residual <= 1e-9
        minus, plus = split.factors()
        expected = solve_cubic(Polynomial([1, 0, -1, 1])).values()
        expected += solve_cubic(Polynomial([1, 0, 1, 1])).values()
        got = solve_cubic(minus).values() + solve_cubic(plus).values()
        worst, _ = match_roots(got, expected)
        assert worst <= 1e-7

    def test_quartic_split_matches_solver(self):
        F = Polynomial([-1, 0, 0, 0, 1])
        split = square_difference_split(F)
        assert split.residual <= 1e-12
        minus, plus = split.factors()
        got = solve_quadratic(minus).values() + solve_quadratic(plus).values()
        worst, _ = match_roots(got, solve_quartic(F).values())
        assert worst <= 1e-8

    def test_random_degree_8_residual(self):
        rng = random.Random(88)
        for _ in range(10):
            F = unit_disk_poly(rng, 8)
            split = square_difference_split(F)
            assert split.residual <= 1e-9

    @pytest.mark.parametrize("degree", [6, 8, 10])
    def test_structure_invariants(self, degree):
        rng = random.Random(degree * 11)
        F = unit_disk_poly(rng, degree)
        split = square_difference_split(F)
        h = degree // 2
        assert len(split.w_plus) == h + 1 and split.w_plus[-1] == 1
        assert len(split.w_minus) == h + 1 and split.w_minus[-1] == 1
        assert len(split.omega) == h + 1
        assert split.omega[0] == F.coeffs[0]
        assert split.omega[-1] == 1
        assert len(split.l_vars) == h - 2
        # omega really is the slotwise coefficient product
        for j in range(h + 1):
            assert abs(split.omega[j] - split.w_plus[j] * split.w_minus[j]) <= 1e-9
        minus, plus = split.factors()
        prod = minus * plus
        bound = 1e-9 * (1 + max(abs(c) for c in F.coeffs))
        assert all(abs(a - b) <= bound for a, b in zip(prod.coeffs, F.coeffs))

    @pytest.mark.parametrize("degree", [6, 8, 10])
    @pytest.mark.parametrize(
        "corpus", [unit_disk_poly, _clustered_poly, _real_poly, _wide_scale_poly],
        ids=["unit_disk", "clustered", "real", "wide_scale"],
    )
    def test_hard_corpora_residual(self, monkeypatch, corpus, degree):
        # the Newton-polygon start reaches the target: one Newton run each
        calls = []
        real = closedform._factor_newton

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(closedform, "_factor_newton", counted)
        rng = random.Random(degree * 101)
        for _ in range(50):
            F = corpus(rng, degree)
            calls.clear()
            assert square_difference_split(F).residual <= 1e-9, F
            assert len(calls) == 1, F

    def test_deterministic(self):
        F = unit_disk_poly(random.Random(610), 10)
        a = square_difference_split(F)
        b = square_difference_split(F)
        assert a.w_plus == b.w_plus
        assert a.w_minus == b.w_minus

    def test_unreachable_target_raises_with_best(self, monkeypatch):
        monkeypatch.setattr(closedform, "_SPLIT_TARGET", 0.0)
        monkeypatch.setattr(closedform, "_SPLIT_STARTS", 2)
        F = unit_disk_poly(random.Random(611), 8)
        with pytest.raises(ConvergenceError) as info:
            square_difference_split(F)
        assert isinstance(info.value.best, SquareDifferenceSplit)
        assert info.value.best.residual > 0.0

    def test_rejects_odd_degree(self):
        with pytest.raises(DegreeError):
            square_difference_split(Polynomial([1, 0, 0, 0, 0, 1]))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            square_difference_split(Polynomial([1, 0, 0, 0, 0, 0, 2]))


class TestBezoutStep:
    @staticmethod
    def _dense_step(u, v, r):
        # the full n x n Jacobian of the coefficient matches: column j of
        # the first block is x^j v, of the second x^j u
        h = len(u) - 1
        n = 2 * h
        jac = [[0j] * n for _ in range(n)]
        for i in range(n):
            for j in range(h):
                if 0 <= i - j <= h:
                    jac[i][j] = v[i - j]
                    jac[i][h + j] = u[i - j]
        _, delta = lu_solve(jac, r)
        return delta[:h], delta[h:]

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    def test_matches_the_dense_jacobian_solve(self, h):
        rng = random.Random(h)

        def draw(k):
            return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]

        for _ in range(20):
            u, v, r = draw(h) + [1], draw(h) + [1], draw(2 * h)
            got = closedform._bezout_step(u, v, r)
            want = self._dense_step(u, v, r)
            for a, b in zip(got, want):
                scale = max(abs(x) for x in b)
                assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12 * scale

    def test_shared_root_is_none(self):
        # u = (x - 1)(x - 2) and v = (x - 1)(x + 3) share the root 1
        assert closedform._bezout_step([2, -3, 1], [-3, 2, 1], [1, 1, 1, 1]) is None


class TestSolveBySplit:
    @pytest.mark.parametrize(
        "coeffs", [[0] * 6 + [1], [0] * 8 + [1], [0, 0, 1, 0, 0, 0, 1]],
        ids=["x^6", "x^8", "x^2(x^4+1)"],
    )
    def test_zero_roots_give_n_roots(self, coeffs):
        F = Polynomial(coeffs)
        report = solve_by_split(F)
        assert len(report.roots) == F.degree
        worst, _ = match_roots(report, all_roots_oracle(F))
        assert worst <= 1e-7

    @pytest.mark.parametrize(
        "m, tail",
        [(5, [1, 0, 0, 1]), (6, [1, 0, 1]), (7, [1, 1]), (4, [1, 0, 1]), (6, [1, 0, 0, 0, 1]),
         (9, [1, 1])],
        ids=["x^5(x^3+1)", "x^6(x^2+1)", "x^7(x+1)", "x^4(x^2+1)", "x^6(x^4+1)", "x^9(x+1)"],
    )
    def test_zero_root_of_multiplicity_at_least_half_is_exact(self, m, tail):
        # x^h divides F: the split starts from x^h and F / x^h, whose product
        # is F exactly, so the zeros are not smeared over a singular step
        F = Polynomial([0] * m + tail)
        report = solve_by_split(F)
        assert cross_check(F, report, 1e-8) == "ok"
        zeros = sorted(report.values(), key=abs)[:m]
        assert max(map(abs, zeros)) <= 1e-12

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_x_h_divisor_starts_from_the_exact_pair(self, n):
        rng = random.Random(n)
        h = n // 2
        for m in range(h, n):
            rest = unit_disk_poly(rng, n - m).coeffs
            F = Polynomial([0] * m + list(rest))
            split = square_difference_split(F)
            assert split.residual == 0.0
            assert split.w_plus == [0j] * h + [1]
            assert cross_check(F, solve_by_split(F), 1e-8) == "ok"

    def test_x6_gives_six_zeros(self):
        report = solve_by_split(Polynomial([0] * 6 + [1]))
        assert [e.root for e in report.roots] == [0j] * 6

    def test_sixth_roots_of_unity(self):
        expected = [cmath.exp(2j * math.pi * k / 6) for k in range(6)]
        report = solve_by_split(Polynomial([-1, 0, 0, 0, 0, 0, 1]))
        worst, _ = match_roots(report, expected)
        assert worst <= 1e-10

    def test_constructed_sextic_roots(self):
        F = Polynomial([1, 0, 0, 2, -1, 0, 1])
        expected = solve_cubic(Polynomial([1, 0, -1, 1])).values()
        expected += solve_cubic(Polynomial([1, 0, 1, 1])).values()
        worst, _ = match_roots(solve_by_split(F), expected)
        assert worst <= 1e-8

    def test_seeded_degree_10_matches_oracle(self):
        rng = random.Random(1010)
        F = unit_disk_poly(rng, 10)
        worst, _ = match_roots(solve_by_split(F), all_roots_oracle(F))
        assert worst <= 1e-7

    def test_residuals_reported(self):
        rng = random.Random(66)
        F = unit_disk_poly(rng, 8)
        report = solve_by_split(F)
        for e in report.roots:
            assert e.residual <= 1e-9
            assert abs(scaled_residual(F, e.root) - e.residual) <= 1e-12

    def test_short_grim_half_leaves_the_report_short(self, monkeypatch):
        # GRIM drops one root of the first degree-5 half: no other path
        # recovers it, so the report holds 9 roots and reads partial
        real = grim.grim_solve
        calls = []

        def drop_one(p):
            report = real(p)
            calls.append(p)
            if len(calls) == 1:
                report.roots.pop()
            return report

        monkeypatch.setattr(grim, "grim_solve", drop_one)
        F = unit_disk_poly(random.Random(1010), 10)
        report = solve_by_split(F)
        assert [p.degree for p in calls] == [5, 5]
        assert len(report.roots) == 9
        assert cross_check(F, report, 1e-7) == "partial"
