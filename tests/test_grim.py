import cmath
import math
import random

import pytest

import polysolve.grim
from polysolve import (
    GrimError,
    Polynomial,
    all_roots_oracle,
    eval_poly,
    grim_coverage,
    grim_solve,
    match_roots,
    newton_polygon,
    poly_from_roots,
    scaled_residual,
)

from conftest import bisect_root, separated_roots_poly, unit_disk_poly

SQRT2 = 1.4142135623730951


def _two_horner_iterate(fc, p, n, d, seed, iters):
    """Reference orbit: F^c at x to step, then p at the new point to rank
    it (two Horner passes per step); always returns [limit, best]."""
    x = complex(seed)
    best = x
    best_res = abs(eval_poly(p, x))
    for _ in range(iters):
        v = eval_poly(fc, x)
        if v == 0:
            if abs(x) < 1.0:
                return [x, best]
            return [best]
        x_next = cmath.exp((cmath.log(v) + 2j * math.pi * d) / n)
        if not (abs(x_next) < polysolve.grim._MAX_MODULUS):
            return [best]
        res = abs(eval_poly(p, x_next))
        if res < best_res:
            best, best_res = x_next, res
        if abs(x_next - x) <= polysolve.grim._STEP_TOL * (1.0 + abs(x_next)):
            return [x_next, best]
        x = x_next
    return [x, best]


def _mpmath_roots(p, mpmath):
    """p's roots by mpmath.polyroots at 40 digits and each root's error
    magnification max(1, sum |c_k| |r|^k) / |p'(r)|: a point whose scaled
    residual is eta lies about eta times it from the root."""
    with mpmath.workdps(40):
        cs = [mpmath.mpc(c.real, c.imag) for c in p.coeffs]
        dcs = [k * c for k, c in enumerate(cs)][1:]
        roots = mpmath.polyroots(cs[::-1], maxsteps=200, extraprec=100)
        mags = []
        for r in roots:
            size = mpmath.fsum(abs(c) * abs(r) ** k for k, c in enumerate(cs))
            mags.append(float(max(1, size) / abs(mpmath.polyval(dcs[::-1], r))))
    return [complex(r) for r in roots], mags


class TestGrimSolve:
    def test_x2_minus_2(self):
        oracle = bisect_root(lambda x: x * x - 2, 1.0, 2.0)
        assert abs(oracle - SQRT2) <= 1e-12
        report = grim_solve(Polynomial([-2, 0, 1]))
        worst, _ = match_roots(report, [SQRT2, -SQRT2])
        assert worst <= 1e-10

    def test_cube_roots_of_unity_across_branches(self):
        report = grim_solve(Polynomial([-1, 0, 0, 1]))
        expected = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        worst, _ = match_roots(report, expected)
        assert worst <= 1e-10
        assert sorted({e.branch for e in report.roots}) == [0, 1, 2]

    def test_binomial_branch_phase(self):
        # constant complementary part: one step per branch, exact n-th roots
        a = 2 + 1j
        report = grim_solve(Polynomial([-a, 0, 0, 0, 0, 1]))
        expected = [
            cmath.exp(cmath.log(a) / 5 + 2j * math.pi * d / 5) for d in range(5)
        ]
        worst, _ = match_roots(report, expected)
        assert worst <= 1e-12

    def test_seeded_degree_7(self):
        rng = random.Random(777)
        p = unit_disk_poly(rng, 7)
        report = grim_solve(p)
        oracle = all_roots_oracle(p)
        for e in report.roots:
            assert min(abs(e.root - o.root) for o in oracle.roots) <= 1e-8

    def test_soundness_and_distinctness(self):
        rng = random.Random(55)
        for _ in range(20):
            p, _ = separated_roots_poly(rng, rng.randint(2, 8))
            report = grim_solve(p)
            values = report.values()
            for e in report.roots:
                assert e.residual <= polysolve.grim._POLISH_TOL
                assert abs(scaled_residual(p, e.root) - e.residual) <= 1e-12
            # the shared dedup rule: no two roots within 1e-6 (1 + |x|)
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    small = min(abs(values[i]), abs(values[j]))
                    assert abs(values[i] - values[j]) > 1e-6 * (1.0 + small)

    def test_degree_one(self):
        report = grim_solve(Polynomial([3, 2]))
        assert abs(report.roots[0].root + 1.5) <= 1e-12

    def test_matches_two_horner_orbits(self):
        # one F^c pass per step ranks the iterates as p itself did: the
        # candidate points are the reference orbit's, its limit given once
        # when it is also the best point
        rng = random.Random(4077)
        for degree in range(5, 25):
            p, _ = separated_roots_poly(rng, degree)
            lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            p = Polynomial([c * lead for c in p.coeffs])
            fc = polysolve.grim._complementary(p)
            rev = tuple(reversed(fc.coeffs))
            far = max(u for *_, u in newton_polygon(p)) / 2.0
            seeds = [0.01 + 0j, 1j, -1j, far + 0j]
            for d in range(degree):
                for seed in seeds:
                    start = (seed, fc(seed), abs(eval_poly(p, seed)) / abs(p.lead))
                    got = polysolve.grim._iterate(rev, degree, d, start)
                    ref = _two_horner_iterate(
                        fc, p, degree, d, seed, polysolve.grim._ORBIT_STEPS
                    )
                    if len(ref) == 2 and ref[0] == ref[1]:
                        ref = ref[:1]
                    assert repr(got) == repr(ref)

    def test_zero_roots_split_off(self):
        report = grim_solve(Polynomial([0] * 7 + [1]))
        assert [(e.root, e.residual) for e in report.roots] == [(0j, 0.0)] * 7
        assert report.warnings == []
        cubic = [1.5, -0.5 + 1j, -1j]
        p = Polynomial([0, 0, *poly_from_roots(cubic).coeffs])
        report = grim_solve(p)
        assert report.warnings == []
        worst, _ = match_roots(report, [0, 0, *cubic])
        assert worst <= 1e-10
        for e in report.roots:
            assert e.residual == scaled_residual(p, e.root) <= 1e-10

    def test_large_seeds_do_not_overflow(self):
        # the far seed, half the largest polygon radius, is 5e119 for
        # 1e300 + 1e-300 x^5, and seed^n overflows a float. Its roots have
        # modulus 1e120, where |x|^5 overflows too, so no polish can settle
        # there.
        wilkinson = poly_from_roots(range(1, 21))
        report = grim_solve(wilkinson)
        assert report.roots
        for e in report.roots:
            assert e.residual <= polysolve.grim._POLISH_TOL
        with pytest.raises(GrimError):
            grim_solve(Polynomial([1e300, 0, 0, 0, 0, 1e-300]))

    def test_shortfall_warning(self):
        # Wilkinson's degree-24 polynomial: neither its polygon points nor
        # the orbits settle on every root in double precision. 12 do. A
        # settled polish returns once |p(x)| is within Horner's rounding
        # bound; with Laguerre's step that exit keeps all 12, while with
        # deflated Newton steps the same exit left 9.
        report = grim_solve(poly_from_roots(range(1, 25)))
        k = len(report.roots)
        assert 12 <= k < 24
        assert report.warnings[-1] == f"found {k} of 24 roots"
        assert grim_solve(Polynomial([-1, 0, 0, 1])).warnings == []

    def test_repeated_roots_once_per_copy(self):
        # each deflated polish finds one more copy of -1; the zeros are exact
        for roots in ([-1, -1], [0, 0, 0, -1, -1]):
            report = grim_solve(poly_from_roots(roots))
            assert len(report.roots) == len(roots)
            assert report.warnings == []
            assert [e.root for e in report.roots].count(0j) == roots.count(0)
            for e in report.roots:
                if e.root != 0:
                    assert abs(e.root + 1) <= 1e-5
                    assert e.residual <= polysolve.grim._POLISH_TOL

    def test_wilkinson_twenty_roots(self):
        # The float coefficients alone move the roots of Wilkinson's
        # polynomial off the integers by up to 6.1e-4 (at 13), and rounding
        # in a Horner pass moves Newton's iterates near 14 by up to 1e-2, so
        # no Newton iteration in doubles settles within 1e-6 k of k. What it can reach: each root
        # within 1e-14 times its error magnification of a root of the same
        # coefficients, a residual at rounding level. Points where p is
        # tiny but Newton still moves by 0.1 or more (8.12+2.72i, say)
        # have residuals under polish_tol too, and GRIM must not stop there.
        mpmath = pytest.importorskip("mpmath")
        p = poly_from_roots(range(1, 21))
        report = grim_solve(p)
        assert len(report.roots) == 20
        assert report.warnings == []
        _, pairs = match_roots(report, list(range(1, 21)))
        for i, j in pairs:
            assert abs(report.roots[i].root - (j + 1)) <= 1e-3 * (j + 1)
            assert report.roots[i].residual <= polysolve.grim._POLISH_TOL
        ref, mags = _mpmath_roots(p, mpmath)
        _, pairs = match_roots(report, ref)
        for i, j in pairs:
            assert abs(report.roots[i].root - ref[j]) <= 1e-14 * mags[j]

    def test_one_newton_polish_per_root(self, monkeypatch):
        # the benchmark times GRIM's polish by wrapping poly.newton_polish
        # and reads grim.polishes_per_root from those calls, so every
        # polish must go through it: once per root on separated roots
        calls = []
        kernel = polysolve.poly.newton_polish

        def counted(*args, **kwargs):
            calls.append(args[1])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(polysolve.poly, "newton_polish", counted)
        rng = random.Random(24)
        for degree in (5, 12, 20):
            p, _ = separated_roots_poly(rng, degree)
            calls.clear()
            assert len(grim_solve(p).roots) == degree
            assert len(calls) == degree

    def test_settling_passes_per_root(self, monkeypatch):
        # Laguerre's step with the found roots divided out, and the exit at
        # Horner's rounding bound, take 2669 settling passes for these 556
        # roots (4.80 a root); deflated Newton with only the rounding-step
        # exit took 5321 (9.57 a root). The budget is 35% under the latter.
        passes = []
        kernel = polysolve.poly._laguerre_pass

        def counted(terms, x):
            passes.append(x)
            return kernel(terms, x)

        monkeypatch.setattr(polysolve.poly, "_laguerre_pass", counted)
        rng = random.Random(25)
        roots = 0
        for _ in range(40):
            p, _ = separated_roots_poly(rng, rng.randint(5, 20))
            report = grim_solve(p)
            assert len(report.roots) == p.degree
            roots += p.degree
        assert len(passes) / roots <= 0.65 * 5321 / 556

    def test_roots_two_hundred_decades_apart(self, monkeypatch):
        # x^3 - 1e200 x - 1: |p'| near the root -1e-200 is 1e200, so
        # Laguerre's G^2 overflows there and the step falls back to
        # Maehly's, which finds the root to rounding from its polygon
        # point; without the fallback that polish ends in NaN
        def no_orbit(*args):
            raise AssertionError("an orbit ran")

        monkeypatch.setattr(polysolve.grim, "_iterate", no_orbit)
        report = grim_solve(Polynomial([-1, -1e200, 0, 1]))
        assert len(report.roots) == 3
        assert report.warnings == []
        assert min(abs(e.root + 1e-200) for e in report.roots) <= 1e-215
        worst, _ = match_roots(report, [-1e100, -1e-200, 1e100])
        assert worst <= 1e-15 * 1e100
        # x^4 - 1e100 x - 1: the root -1e-100 and three of modulus 1e100^(1/3)
        report = grim_solve(Polynomial([-1, -1e100, 0, 0, 1]))
        assert len(report.roots) == 4
        assert report.warnings == []
        assert min(abs(e.root + 1e-100) for e in report.roots) <= 1e-115

    def test_separated_roots_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
        @settings(max_examples=40, deadline=None)
        def check(seed, degree):
            p, _ = separated_roots_poly(random.Random(seed), degree)
            report = grim_solve(p)
            assert len(report.roots) == degree
            assert report.warnings == []
            ref, mags = _mpmath_roots(p, mpmath)
            _, pairs = match_roots(report, ref)
            assert len(pairs) == degree
            for i, j in pairs:
                tol = 1e-8 * mags[j] + 1e-14 * (1.0 + abs(ref[j]))
                assert abs(report.roots[i].root - ref[j]) <= tol

        check()


class TestPolygonStarts:
    def test_polygon_points_need_no_orbit(self, monkeypatch):
        # off-axis polygon points reach every root of random real
        # polynomials; an orbit step here fails the test (with the points
        # on the real axis, 11 of these 300 needed the orbits)
        def no_orbit(*args):
            raise AssertionError("an orbit ran")

        monkeypatch.setattr(polysolve.grim, "_iterate", no_orbit)
        rng = random.Random(300)
        for _ in range(300):
            n = rng.randint(3, 16)
            p = Polynomial([rng.uniform(-1, 1) for _ in range(n + 1)])
            report = grim_solve(p)
            assert len(report.roots) == n
            assert report.warnings == []

    def test_orbits_complete_wilkinson(self, monkeypatch):
        # Wilkinson-20 needs the orbits: its polygon points leave roots
        # unfound, and without the orbits fewer than 20 come back
        monkeypatch.setattr(polysolve.grim, "_iterate", lambda *args: [])
        p = poly_from_roots(range(1, 21))
        short = grim_solve(p)
        assert len(short.roots) < 20
        assert short.warnings[-1] == f"found {len(short.roots)} of 20 roots"
        monkeypatch.undo()
        assert len(grim_solve(p).roots) == 20

    def test_branch_map_fixes_each_root(self):
        # x <- exp((Log F^c(x) + 2 pi i d) / n) with d the reported branch
        # maps each root onto itself (on separated roots, where F^c(x) is
        # well above its rounding error)
        rng = random.Random(31)
        for _ in range(30):
            p, _ = separated_roots_poly(rng, rng.randint(2, 16))
            n = p.degree
            fc = polysolve.grim._complementary(p)
            for e in grim_solve(p).roots:
                image = cmath.exp((cmath.log(fc(e.root)) + 2j * math.pi * e.branch) / n)
                assert abs(image - e.root) <= 1e-6 * (1.0 + abs(e.root))

    def test_branch_of_wilkinson_roots(self):
        # every root of Wilkinson's polynomial is real and positive, so its
        # map is branch 0's, though F^c near 1 is all rounding error
        assert {e.branch for e in grim_solve(poly_from_roots(range(1, 21))).roots} == {0}

    def test_small_root_of_a_wide_trinomial(self):
        # x^5 - 1e6 x - 1: the root near -1e-6 was out of reach of the
        # default seeds and the map
        report = grim_solve(Polynomial([-1, -1e6, 0, 0, 0, 1]))
        assert len(report.roots) == 5
        assert report.warnings == []
        assert min(abs(e.root + 1e-6) for e in report.roots) <= 1e-18

    def test_wide_trinomials_match_mpmath(self):
        # x^s - 10^k x - 1: the orbits alone missed a root on all twelve
        mpmath = pytest.importorskip("mpmath")
        for s in (5, 7, 9):
            for k in (2, 4, 6, 8):
                p = Polynomial([-1, -(10.0**k)] + [0] * (s - 2) + [1])
                report = grim_solve(p)
                assert len(report.roots) == s, (s, k)
                assert report.warnings == []
                ref, mags = _mpmath_roots(p, mpmath)
                _, pairs = match_roots(report, ref)
                for i, j in pairs:
                    tol = 1e-8 * mags[j] + 1e-14 * (1.0 + abs(ref[j]))
                    assert abs(report.roots[i].root - ref[j]) <= tol, (s, k)

    def test_huge_constant_term(self):
        # x^5 + 1e70: roots of modulus 1e14 from the polygon radius
        report = grim_solve(Polynomial([1e70, 0, 0, 0, 0, 1]))
        assert len(report.roots) == 5
        expected = [1e14 * cmath.exp(1j * math.pi * (2 * k + 1) / 5) for k in range(5)]
        worst, _ = match_roots(report, expected)
        assert worst <= 1e-10 * 1e14


class TestGrimCoverage:
    def test_cube_roots(self):
        found, total, unmatched = grim_coverage(Polynomial([-1, 0, 0, 1]))
        assert (found, total) == (3, 3)
        assert unmatched == []

    def test_double_root(self):
        found, total, unmatched = grim_coverage(Polynomial([1, -2, 1]))
        assert total == 2
        assert found <= 2
        # every oracle value sits within the 1e-4 conditioning radius of a
        # reported high-quality root
        assert found == 2

    def test_seeded_corpus_mostly_full(self):
        rng = random.Random(1234)
        full = 0
        for _ in range(30):
            p, _ = separated_roots_poly(rng, rng.randint(2, 10))
            found, total, _ = grim_coverage(p)
            if found == total:
                full += 1
        assert full >= 27
