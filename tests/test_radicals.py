import cmath
import math
import random

import pytest

from polysolve import (
    Polynomial,
    all_roots_oracle,
    newton_polish,
    quadrinomial_radical_root,
    scaled_residual,
    septic_radical_root,
    trinomial_radical_root,
    trinomial_series_root,
)

from conftest import bisect_root

X3_ROOT = 0.6823278038280193  # bisection oracle for x^3 + x - 1 on [0, 1]
X5P_ROOT = 0.7548776662466927  # x^5 + x - 1 on [0, 1]


class TestTrinomialRadical:
    def test_alpha_zero_is_binomial(self):
        x, its, status = trinomial_radical_root(5, 1, 0, 32)
        assert status == "converged"
        assert abs(x - 2) <= 1e-12

    def test_alpha_zero_branch_phase(self):
        x, _, status = trinomial_radical_root(5, 1, 0, 32, 2)
        assert abs(x - 2 * cmath.exp(4j * math.pi / 5)) <= 1e-12

    def test_cubic_anchor(self):
        oracle = bisect_root(lambda v: v**3 + v - 1, 0.0, 1.0)
        assert abs(oracle - X3_ROOT) <= 1e-12
        x, its, status = trinomial_radical_root(3, 1, 1, 1)
        assert status == "converged"
        assert abs(x - X3_ROOT) <= 1e-10

    def test_quintic_anchor(self):
        x, its, status = trinomial_radical_root(5, 1, 1, 1)
        assert status == "converged"
        assert abs(x - X5P_ROOT) <= 1e-10

    def test_precondition(self):
        with pytest.raises(ValueError):
            trinomial_radical_root(1, 2, 1, 1)
        with pytest.raises(ValueError):  # q = 0 has no y = x^q substitution
            trinomial_radical_root(5, 0, 1, 1)

    def test_negative_exponents(self):
        # p/q = 5 > 1 with both exponents negative: x^-5 + x^-1 = 1
        x, _, status = trinomial_radical_root(-5, -1, 1, 1)
        assert status == "converged"
        assert abs(x**-5 + x**-1 - 1) <= 1e-10

    def test_agrees_with_series_on_overlap(self):
        # overlap corpus: q away from the principal branch cut (otherwise
        # the two methods label branches differently and pick different,
        # equally genuine roots) and moderate argument modulus
        import cmath

        from polysolve import Trinomial, argument_modulus_constant

        rng = random.Random(0xAB)
        both = 0
        for _ in range(60):
            s = rng.randint(2, 7)
            b = rng.randint(1, s - 1)
            q = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-1.2, 1.2))
            target = rng.uniform(0.05, 0.6)
            const = float(argument_modulus_constant(s, b))
            alpha = cmath.rect(
                (target * abs(q) ** (s - b) / const) ** (1.0 / s),
                rng.uniform(-math.pi, math.pi),
            )
            t = Trinomial(s, b, alpha, q)
            # radical form x^p + alpha' x^q - c with alpha' = -alpha, c = q
            x, _, status = trinomial_radical_root(t.s, t.b, -t.alpha, t.q)
            if status != "converged":
                continue
            y, _ = trinomial_series_root(t, 0)
            both += 1
            assert abs(x - y) <= 1e-8 * (1 + abs(y)), t
        assert both >= 40


class TestQuadrinomialRadical:
    def test_beta_zero_reduction(self):
        x1, status1 = quadrinomial_radical_root(5, 3, 1, 0.7, 0, 1.3)
        x2, _, status2 = trinomial_radical_root(5, 3, 0.7, 1.3)
        assert status1 == status2 == "converged"
        assert abs(x1 - x2) <= 1e-10

    def test_root_by_inspection(self):
        x, status = quadrinomial_radical_root(4, 2, 1, 1, 1, 3)
        assert status == "converged"
        assert abs(x - 1) <= 1e-10

    def test_seeded_instance_matches_oracle(self):
        x, status = quadrinomial_radical_root(5, 3, 1, 0.4, 0.2, 1.1)
        assert status == "converged"
        p = Polynomial([-1.1, 0.2, 0, 0.4, 0, 1])
        x, res, _ = newton_polish(p, x, tol=1e-12)
        oracle = all_roots_oracle(p)
        assert min(abs(x - e.root) for e in oracle.roots) <= 1e-8

    def test_exponent_order_enforced(self):
        with pytest.raises(ValueError):
            quadrinomial_radical_root(3, 5, 1, 1, 1, 1)
        with pytest.raises(ValueError):  # the inner trinomial needs q > 0
            quadrinomial_radical_root(5, 0, -1, 1, 1, 1)


class TestSepticRadical:
    def test_pure_binomial(self):
        x, status = septic_radical_root(0, 0, 0, -1)
        assert status == "converged"
        assert abs(x - 1) <= 1e-12
        x, status = septic_radical_root(0, 0, 0, -128, 3)
        assert abs(x - 2 * cmath.exp(6j * math.pi / 7)) <= 1e-10

    def test_seeded_instance_matches_oracle(self):
        x, status = septic_radical_root(0.2, 0.1, 0.3, -0.5)
        assert status == "converged"
        p = Polynomial([-0.5, 0.3, 0.1, 0.2, 0, 0, 0, 1.0])
        oracle = all_roots_oracle(p)
        assert min(abs(x - e.root) for e in oracle.roots) <= 1e-8

    def test_converged_implies_polynomial_residual(self):
        rng = random.Random(9)
        converged = 0
        for _ in range(20):
            a, b, g, d = (
                complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                for _ in range(4)
            )
            x, status = septic_radical_root(a, b, g, d)
            if status == "converged":
                converged += 1
                p = Polynomial([d, g, b, a, 0, 0, 0, 1.0])
                assert scaled_residual(p, x) <= 1e-8
        assert converged >= 10


class TestDivergenceGuard:
    def test_never_reports_unconverged_as_root(self):
        # x^3 + alpha x^2 - 1 from weak to strong coupling: the sweep meets
        # both outcomes, and a converged status must mean the root holds
        outcomes = set()
        for alpha in (0.5, 1.0, 2.0, 3.0, 6.0, 12.0, 25.0):
            p = Polynomial([-1.0, 0, alpha, 1.0])
            for k in range(3):
                x, _, status = trinomial_radical_root(3, 2, alpha, 1.0, k)
                outcomes.add(status)
                if status == "converged":
                    assert scaled_residual(p, x) <= 1e-6, (alpha, k)
        assert {"converged", "maxiter"} <= outcomes
