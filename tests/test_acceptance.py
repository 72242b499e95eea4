"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime. Tolerances and time limits are pinned here and nowhere
else; every expected value traces to an independent oracle (bisection,
Durand-Kerner, exact rational arithmetic)."""

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from polysolve import (
    Polynomial,
    Trinomial,
    adjacent_septic_root,
    all_roots_oracle,
    argument_modulus_constant,
    brauer_rd,
    eval_poly,
    grim_coverage,
    grim_solve,
    match_roots,
    poly_from_roots,
    scaled_residual,
    septic_radical_root,
    solve_by_split,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
    square_difference_split,
    sylvester_resultant,
    trinomial_pfq_root,
    trinomial_radical_root,
    trinomial_series_root,
    tschirnhaus_quadratic,
)
from polysolve.series import trinomial_log_term

from conftest import separated_roots_poly, unit_disk_poly


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] criterion {number}: {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
    )


def seeded_capped_trinomial(rng: random.Random) -> Trinomial:
    s = rng.randint(2, 7)
    b = rng.randint(1, s - 1)
    q = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
    target = rng.uniform(0.05, 0.8)
    const = float(argument_modulus_constant(s, b))
    alpha = cmath.rect(
        (target * abs(q) ** (s - b) / const) ** (1.0 / s),
        rng.uniform(-math.pi, math.pi),
    )
    return Trinomial(s, b, alpha, q)


def test_criterion_1_brauer_table():
    with criterion(1, "Brauer degree-reduction table rows", 1.0):
        expected = {5: (1, 4), 6: (2, 4), 7: (2, 5), 9: (4, 5), 25: (19, 6), 121: (114, 7)}
        for n, (rd_max, r) in expected.items():
            row = brauer_rd(n)
            assert (row.rd_max, row.r) == (rd_max, r), f"n={n}"


def test_criterion_2_argument_constant_law():
    with criterion(2, "regrouped argument coefficient law (exact rationals)", 1.0):
        for s in range(2, 10):
            for b in range(1, s):
                assert argument_modulus_constant(s, b) == Fraction(
                    b**b * (s - b) ** (s - b), s**s
                )
        anchors = [
            (5, 1, Fraction(256, 3125)),
            (5, 2, Fraction(108, 3125)),
            (5, 3, Fraction(108, 3125)),
            (6, 1, Fraction(3125, 46656)),
            (7, 1, Fraction(46656, 823543)),
            (7, 2, Fraction(12500, 823543)),
        ]
        for s, b, value in anchors:
            assert argument_modulus_constant(s, b) == value


def _criterion3_corpus():
    rng = random.Random(0x5EED03)
    return [seeded_capped_trinomial(rng) for _ in range(500)]


def test_criterion_3_series_soundness():
    with criterion(3, "trinomial series soundness over 500 seeded instances", 30.0):
        for t in _criterion3_corpus():
            p = t.polynomial()
            roots = []
            for k in range(t.s):
                # near the 0.8 argument cap the 400-term default can stop
                # short of the 1e-12 term tolerance; anything non-divergent
                # must still polish to a sound root
                root, diag = trinomial_series_root(t, k)
                assert diag.status in ("converged", "truncated"), (t, k)
                assert diag.residual <= 1e-10, (t, k, diag.residual)
                assert scaled_residual(p, root) <= 1e-10
                roots.append(root)
            worst, _ = match_roots(roots, all_roots_oracle(p))
            assert worst <= 1e-8, (t, worst)


def test_criterion_4_pfq_regrouping_equivalence():
    with criterion(4, "pFq regrouping equals 400-term direct summation", 30.0):
        rng = random.Random(0x5EED03)
        corpus = [seeded_capped_trinomial(rng) for _ in range(500)]
        for t in corpus:
            for k in range(t.s):
                form = trinomial_pfq_root(t, k)
                value, status = form.evaluate(600)
                assert status == "converged", (t, k)
                direct = cmath.exp(cmath.log(t.q) / t.s + 2j * math.pi * k / t.s)
                for n in range(1, 401):
                    direct += trinomial_log_term(t, k, n)
                assert abs(value - direct) <= 1e-9 * max(abs(direct), 1e-12), (t, k)


def test_criterion_5_closed_forms():
    with criterion(5, "closed forms for degrees 2-4 vs oracle and Vieta", 10.0):
        solvers = {2: solve_quadratic, 3: solve_cubic, 4: solve_quartic}
        for degree, solver in solvers.items():
            rng = random.Random(0x5EED05 + degree)
            for _ in range(500):
                p = unit_disk_poly(rng, degree, monic=False)
                report = solver(p)
                worst, _ = match_roots(report, all_roots_oracle(p))
                assert worst <= 1e-8, (degree, p)
                roots = report.values()
                total = sum(roots)
                prod = 1.0 + 0j
                for r in roots:
                    prod *= r
                sum_ref = -p.coeffs[degree - 1] / p.coeffs[degree]
                prod_ref = (-1) ** degree * p.coeffs[0] / p.coeffs[degree]
                assert abs(total - sum_ref) <= 1e-8 * (1 + abs(sum_ref))
                assert abs(prod - prod_ref) <= 1e-8 * (1 + abs(prod_ref))


def test_criterion_6_square_difference_splits():
    with criterion(6, "square-difference splits for degrees 6, 8, 10", 60.0):
        for degree in (6, 8, 10):
            rng = random.Random(0x5EED06 + degree)
            for _ in range(100):
                F = unit_disk_poly(rng, degree)
                split = square_difference_split(F)
                assert split.residual <= 1e-9, (degree, F)
                report = solve_by_split(F)
                worst, _ = match_roots(report, all_roots_oracle(F))
                assert worst <= 1e-7, (degree, F, worst)


def test_criterion_7_grim_properties():
    with criterion(7, "GRIM soundness and >=90/100 full coverage", 120.0):
        rng = random.Random(0x5EED07)
        full = 0
        shortfalls = []
        for idx in range(100):
            p, _ = separated_roots_poly(rng, rng.randint(2, 10))
            report = grim_solve(p)
            for e in report.roots:
                assert e.residual <= 1e-10, (idx, e)
            found, total, unmatched = grim_coverage(p)
            if found == total:
                full += 1
            else:
                shortfalls.append((idx, found, total))
        for idx, found, total in shortfalls:
            print(f"  coverage shortfall on instance {idx}: {found}/{total}")
        assert full >= 90, f"full coverage on only {full}/100 instances"


def test_criterion_8_radical_anchors():
    with criterion(8, "nested-radical anchors and septic oracle match", 5.0):
        x, _, status = trinomial_radical_root(3, 1, 1, 1)
        assert status == "converged"
        assert abs(x - 0.6823278038280193) <= 1e-10
        x, _, status = trinomial_radical_root(5, 1, 1, 1)
        assert status == "converged"
        assert abs(x - 0.7548776662466927) <= 1e-10
        x, status = septic_radical_root(0.2, 0.1, 0.3, -0.5)
        assert status == "converged"
        p = Polynomial([-0.5, 0.3, 0.1, 0.2, 0, 0, 0, 1.0])
        oracle = all_roots_oracle(p)
        assert min(abs(x - e.root) for e in oracle.roots) <= 1e-8


def test_criterion_9_adjacent_regime():
    with criterion(9, "adjacent septic series beats its cubic seed", 5.0):
        root, diag = adjacent_septic_root(1, 4, 1, 1)
        p = Polynomial([-1, 1, 4, 1, 0, 0, 0, 1.0])
        seed_residual = abs(eval_poly(p, diag.notes["seed"]))
        series_residual = abs(eval_poly(p, diag.series_value))
        print(
            f"  seed residual {seed_residual:.3e}, "
            f"series residual {series_residual:.3e}"
        )
        assert series_residual <= 1e-2
        assert series_residual < seed_residual
        oracle = all_roots_oracle(p)
        assert min(abs(root - e.root) for e in oracle.roots) <= 1e-8


def test_criterion_10_resultant_and_tschirnhaus():
    with criterion(10, "resultant zero-iff-common-root and principal quintics", 10.0):
        rng = random.Random(0x5EED10)
        # 100 instances with a shared factor, 100 with separated root sets
        for _ in range(100):
            g = unit_disk_poly(rng, rng.randint(1, 2))
            u = unit_disk_poly(rng, rng.randint(1, 2))
            v = unit_disk_poly(rng, rng.randint(1, 2))
            p, q = g * u, g * v
            scale = max(
                max(abs(c) for c in p.coeffs), max(abs(c) for c in q.coeffs)
            ) ** (p.degree + q.degree)
            assert abs(sylvester_resultant(p, q)) <= 1e-8 * max(1.0, scale)
        for _ in range(100):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            left = [
                cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0, math.pi))
                for _ in range(n1)
            ]
            right = [
                cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(-math.pi, -0.1))
                - 2.0
                for _ in range(n2)
            ]
            p, q = poly_from_roots(left), poly_from_roots(right)
            value = abs(sylvester_resultant(p, q))
            min_gap = min(abs(a - b) for a in left for b in right)
            assert value > (min_gap * 0.5) ** (n1 * n2) * 1e-4

        rng = random.Random(0x5EED11)
        for _ in range(100):
            p = unit_disk_poly(rng, 5)
            out, a1, a2 = tschirnhaus_quadratic(p)
            assert abs(out.coeffs[4]) <= 1e-10
            assert abs(out.coeffs[3]) <= 1e-10
            for e in all_roots_oracle(p).roots:
                w = e.root * e.root + a1 * e.root + a2
                assert scaled_residual(out, w) <= 1e-8
