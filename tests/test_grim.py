import cmath
import math
import random

import pytest

import polysolve.grim
from polysolve import (
    GrimConfig,
    GrimError,
    Polynomial,
    all_roots_oracle,
    eval_poly,
    grim_coverage,
    grim_solve,
    match_roots,
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
        cfg = GrimConfig()
        for _ in range(20):
            p, _ = separated_roots_poly(rng, rng.randint(2, 8))
            report = grim_solve(p, cfg)
            values = report.values()
            for e in report.roots:
                assert e.residual <= cfg.polish_tol
                assert abs(scaled_residual(p, e.root) - e.residual) <= 1e-12
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    assert abs(values[i] - values[j]) > cfg.dedup_tol

    def test_seed_invariance_on_safe_corpus(self):
        from polysolve import cauchy_bound

        rng = random.Random(2024)
        agreements = 0
        for _ in range(10):
            p, _ = separated_roots_poly(rng, rng.randint(2, 6))
            a = grim_solve(p, GrimConfig(seeds=[1j, -1j]))
            b = grim_solve(
                p, GrimConfig(seeds=[0.01 + 0j, cauchy_bound(p) / 2 + 0j])
            )
            if len(a.roots) == len(b.roots) == p.degree:
                worst, _ = match_roots(a, b)
                assert worst <= 1e-6
                agreements += 1
        assert agreements >= 7

    def test_degree_one(self):
        report = grim_solve(Polynomial([3, 2]))
        assert abs(report.roots[0].root + 1.5) <= 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrimConfig(iters=0)
        with pytest.raises(ValueError):
            GrimConfig(branches=[])
        with pytest.raises(ValueError):
            GrimConfig(seeds=[])

    def test_matches_two_horner_orbits(self, monkeypatch):
        # one F^c pass per step ranks the iterates as p itself did
        rng = random.Random(4077)
        polys = []
        for degree in range(5, 25):
            p, _ = separated_roots_poly(rng, degree)
            lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            polys.append(Polynomial([c * lead for c in p.coeffs]))
        got = [grim_solve(p).roots for p in polys]
        for p, roots in zip(polys, got):
            monkeypatch.setattr(
                polysolve.grim,
                "_iterate",
                lambda rev, n, d, start, iters: _two_horner_iterate(
                    Polynomial(rev[::-1]), p, n, d, start[0], iters
                ),
            )
            assert repr(roots) == repr(grim_solve(p).roots)

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
        # the default seed cauchy_bound/2 is about 7e18 for Wilkinson's
        # polynomial and 5e69 for x^5 + 1e70; seed^n overflows a float
        wilkinson = poly_from_roots(range(1, 21))
        report = grim_solve(wilkinson)
        assert report.roots
        for e in report.roots:
            assert e.residual <= GrimConfig().polish_tol
        with pytest.raises(GrimError):
            grim_solve(Polynomial([1e70, 0, 0, 0, 0, 1]))

    def test_shortfall_warning(self):
        # instance 26 of the criterion-7 stream: 5 of its 6 roots survive
        rng = random.Random(0x5EED07)
        for _ in range(27):
            p, _ = separated_roots_poly(rng, rng.randint(2, 10))
        report = grim_solve(p)
        assert len(report.roots) == 5
        assert report.warnings[-1] == "found 5 of 6 roots"
        assert grim_solve(Polynomial([-1, 0, 0, 1])).warnings == []


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
