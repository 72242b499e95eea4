import cmath
import math
import sys
import threading
from fractions import Fraction

import pytest

from polysolve import (
    DivergenceError,
    Polynomial,
    Quadrinomial,
    SeriesConfig,
    Trinomial,
    adjacent_septic_root,
    all_roots_oracle,
    argument_modulus_constant,
    bring_jerrard_quintic,
    general_poly_series_root,
    match_roots,
    quadrinomial_series_root,
    reciprocal_series_root,
    scaled_residual,
    solve_cubic,
    trinomial_pfq_root,
    trinomial_series_root,
)
from polysolve import series
from polysolve.series import (
    _cancel_params,
    _class_params,
    _covering_table,
    _term_table,
    trinomial_log_term,
)
from polysolve.numerics import PFQParams, gamma_sign

from conftest import bisect_root, seeded_trinomial

PHI = 1.618033988749895  # bisection oracle for x^2 - x - 1 on [1, 2]
X5P_ROOT = 0.7548776662466927  # x^5 + x - 1 on [0, 1]


class TestReciprocalSeries:
    def test_s_zero(self):
        assert reciprocal_series_root(3, 0) == 3

    def test_quadratic_oracle_one(self):
        # larger root of z^2 - 3z - 1 by the quadratic formula
        expected = (3 + math.sqrt(13)) / 2
        assert abs(reciprocal_series_root(3, 1) - expected) <= 1e-10

    def test_quadratic_oracle_small_s(self):
        expected = (2 + math.sqrt(4.4)) / 2
        assert abs(reciprocal_series_root(2, 0.1) - expected) <= 1e-10

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            reciprocal_series_root(1, 5)  # far outside |s| < |alpha|^2/4


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
        cfg = SeriesConfig(max_terms=600)
        for _ in range(15):
            t = seeded_trinomial(rng)
            for k in range(t.s):
                form = trinomial_pfq_root(t, k)
                value, status = form.evaluate(cfg)
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

    def test_alpha_zero_binomial_form(self):
        form = trinomial_pfq_root(Trinomial(5, 2, 0, 2 + 1j), 3)
        value, status = form.evaluate()
        expected = cmath.exp(cmath.log(2 + 1j) / 5 + 6j * math.pi / 5)
        assert abs(value - expected) <= 1e-12


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


class TestTermMemo:
    """The memoized integer-only parts change no result."""

    def test_class_params_match_fraction_reference(self):
        for s in range(2, 17):
            for b in range(1, s):
                for r0 in range(s):
                    got = _class_params(s, b, r0)
                    want = _reference_class_params(s, b, r0)
                    assert got.upper == want.upper, (s, b, r0)
                    assert got.lower == want.lower, (s, b, r0)

    def test_term_table_matches_direct_lgamma(self):
        for s in range(2, 13):
            for b in range(1, s):
                sign, log_mag = _term_table(s, b, 400)
                assert len(sign) == len(log_mag) == 401
                for n in range(401):
                    num2 = 1 + b * n + s - n * s
                    if num2 % s == 0 and num2 <= 0:
                        assert sign[n] == 0.0 and log_mag[n] == 0.0, (s, b, n)
                        continue
                    x2 = num2 / s
                    assert sign[n] == gamma_sign(x2), (s, b, n)
                    assert log_mag[n] == (
                        math.lgamma((1 + b * n) / s)
                        - math.lgamma(x2)
                        - math.lgamma(n + 1)
                        - math.log(s)
                    ), (s, b, n)

    def test_cold_and_warm_results_equal(self, rng):
        trinomials = [seeded_trinomial(rng, s_max=9) for _ in range(12)]
        trinomials.append(Trinomial(5, 2, 0, 2 + 1j))
        for cache in (_class_params, _term_table, argument_modulus_constant):
            cache.cache_clear()
        cold = [_branch_outputs(t) for t in trinomials]
        warm = [_branch_outputs(t) for t in trinomials]
        assert cold == warm

    def test_series_value_is_sum_of_reference_terms(self, rng):
        cases = [(seeded_trinomial(rng, s_max=12, arg_cap=0.95), SeriesConfig())
                 for _ in range(20)]
        # argument modulus 0.93: the sum needs more terms than the default
        # table holds, so both sides read a longer one
        alpha = cmath.rect((0.93 / float(argument_modulus_constant(2, 1))) ** 0.5, 0.3)
        cases.append((Trinomial(2, 1, alpha, 1.0), SeriesConfig(max_terms=800)))
        checked = 0
        for t, cfg in cases:
            for k in range(t.s):
                try:
                    _, diag = trinomial_series_root(t, k, cfg)
                except DivergenceError:
                    continue
                total = cmath.exp(cmath.log(t.q) / t.s + 2j * math.pi * k / t.s)
                for n in range(1, diag.terms_used + 1):
                    total += trinomial_log_term(t, k, n)
                assert _bits(diag.series_value) == _bits(total), (t, k)
                checked += 1
        assert diag.status == "converged" and diag.terms_used > 400
        assert checked >= 60

    def test_concurrent_callers_see_whole_tables(self, rng):
        trinomials = [seeded_trinomial(rng, s_max=9) for _ in range(4)]
        want = [_branch_outputs(t) for t in trinomials]
        got: list = []
        stop = threading.Event()

        def clear():
            while not stop.is_set():
                for cache in (_class_params, _term_table, argument_modulus_constant):
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

    def test_large_max_terms_builds_only_what_is_read(self):
        _term_table.cache_clear()
        t = Trinomial(5, 1, 0.1, 1.0)
        _, diag = trinomial_series_root(t, 0, SeriesConfig(max_terms=10**7))
        assert diag.status == "converged"
        trinomial_pfq_root(t, 0)
        assert _term_table.cache_info().currsize == 1
        assert len(_covering_table(5, 1, 1)[0]) == SeriesConfig().max_terms + 1


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
        report = bring_jerrard_quintic(-1, 0)
        worst, _ = match_roots(report, [0.0, 1.0, -1.0, 1j, -1j])
        assert worst <= 1e-8
        assert report.warnings
        # every root is an oracle fill-in
        assert [e.branch for e in report.roots] == [-1] * 5

    def test_collided_branches_filled_from_oracle(self, monkeypatch):
        # branch 1 lands on branch 0's root: the oracle supplies the missing one
        real = series.trinomial_series_root
        monkeypatch.setattr(
            series, "trinomial_series_root",
            lambda t, k, *rest: real(t, 0 if k == 1 else k, *rest),
        )
        report = bring_jerrard_quintic(1, 1)
        assert "series branches collided; oracle fill-in" in report.warnings
        assert len(report.roots) == 5
        assert -1 in [e.branch for e in report.roots]
        assert 1 not in [e.branch for e in report.roots]
        worst, _ = match_roots(report, all_roots_oracle(Polynomial([-1, 1, 0, 0, 0, 1])))
        assert worst <= 1e-10

    def test_always_five_roots(self, rng):
        for _ in range(10):
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            report = bring_jerrard_quintic(alpha, q)
            assert len(report.roots) == 5
            p = Polynomial([-q, alpha, 0, 0, 0, 1])
            worst, _ = match_roots(report, all_roots_oracle(p))
            assert worst <= 1e-7


class TestOverflow:
    def test_terms_past_the_float_range_read_diverged(self):
        # a term whose exp overflows is infinite, and the sum reads diverged
        for t in (Trinomial(5, 1, 1e60, 1), Trinomial(3, 1, 1e200, 1)):
            for k in range(t.s):
                with pytest.raises(DivergenceError):
                    trinomial_series_root(t, k)
        with pytest.raises(DivergenceError):
            quadrinomial_series_root(Quadrinomial(7, 2, 1e50, 1, 1e10))


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


class TestGeneralPolySeries:
    def test_linear_exact(self):
        root, diag = general_poly_series_root(Polynomial([4, 2]), 0)
        assert root == -2
        assert diag.status == "converged"

    def test_quadratic_branch(self):
        root, diag = general_poly_series_root(Polynomial([-1, -1, 1]), 0)
        assert abs(root - (-0.6180339887498949)) <= 1e-9

    def test_dominant_cubic(self):
        p = Polynomial([0.3, -5, 0.2, 1])
        root, diag = general_poly_series_root(p, 0)
        assert diag.status == "converged"
        oracle = all_roots_oracle(p)
        assert min(abs(root - e.root) for e in oracle.roots) <= 1e-8

    def test_center_shift(self):
        p = Polynomial([-6, 11, -6, 1])  # roots 1, 2, 3
        root, diag = general_poly_series_root(p, 0.9)
        assert abs(root - 1.0) <= 1e-8

    def test_requires_nonzero_derivative(self):
        with pytest.raises(ValueError):
            general_poly_series_root(Polynomial([1, 0, 1]), 0)

    def test_a_tiny_group_between_larger_ones_does_not_stop_the_sum(self):
        # ratios 0.1 and -1e-14: group 2 is 0.1, group 3 is -1e-14 and
        # group 4 is 0.02, so one small group is not convergence
        p = Polynomial([1, 1, 0.1, 1e-14])
        root, diag = general_poly_series_root(p, 0)
        assert diag.terms_used > 4
        assert abs(diag.series_value - root) <= 1e-6
        assert abs(root - (-1.1270166537925831)) <= 1e-12

    def test_overflowing_groups_raise(self):
        # group 4 holds (1e203)^2: past the float range, the sum reads
        # diverged and the smallest-group cut does not polish to a root
        with pytest.raises(DivergenceError):
            general_poly_series_root(Polynomial([1e3, 1, 1e200, 1]), 0)
