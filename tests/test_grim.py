import cmath
import math
import random

import pytest

from polysolve import (
    GrimConfig,
    Polynomial,
    all_roots_oracle,
    grim_coverage,
    grim_solve,
    match_roots,
    scaled_residual,
)

from conftest import bisect_root, separated_roots_poly, unit_disk_poly

SQRT2 = 1.4142135623730951


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
