import cmath
import contextlib
import math
import random
import sys

import pytest

from polysolve import (
    ConvergenceError,
    DegenerateError,
    Polynomial,
    RootEntry,
    all_roots_oracle,
    brauer_rd,
    distinct_roots,
    eval_poly,
    eval_poly_and_deriv,
    match_roots,
    newton_polish,
    newton_polygon,
    polish,
    parse_poly,
    poly_from_roots,
    scaled_residual,
    sylvester_resultant,
    tschirnhaus_quadratic,
)
import polysolve.grim
import polysolve.poly
from polysolve.poly import _polygon_points, format_poly, lu_solve

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
    def test_all_oracle_roots_inside_bound(self):
        # every root has modulus at most Cauchy's 1 + max_{k<n} |c_k / c_n|
        rng = random.Random(500)
        for _ in range(500):
            deg = rng.randint(1, 12)
            p = unit_disk_poly(rng, deg, monic=False)
            bound = 1.0 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.lead)
            try:
                report = all_roots_oracle(p)
            except ConvergenceError as exc:
                report = exc.best
            for e in report.roots:
                assert abs(e.root) <= bound * (1 + 1e-9)


class TestScaledResidual:
    def test_overflowed_scale_is_an_infinite_residual(self):
        # at |x| = 1e200, sum |c_i| |x|^i overflows while p(x) does not;
        # x is no root, and its residual must not read 0
        p = Polynomial([1e200, 0, 1e-200])
        x = 1e200 * cmath.exp(2.27j)
        assert math.isfinite(abs(eval_poly(p, x)))
        assert scaled_residual(p, x) == math.inf
        assert scaled_residual(p, complex(math.nan, 0)) == math.inf

    def test_overflowed_scale_in_newton_is_no_convergence(self):
        # the first step from 1e150 e^(2.27i) lands near 5e249, where p is
        # finite and the scale is not: the step may not read as converged
        p = Polynomial([1e200, 0, 1e-200])
        with pytest.raises(ConvergenceError) as exc:
            newton_polish(p, 1e150 * cmath.exp(2.27j), 1e-10, 20)
        assert exc.value.best[1] > 1e-10
        assert not polish(p, 1e200 * cmath.exp(2.27j), 1e-10, 20)[3]


def _polygon_ok(p, edges):
    """Edges chain left to right from the lowest to the highest non-zero
    coefficient, with radii that do not fall."""
    nonzero = [i for i, c in enumerate(p.coeffs) if c != 0]
    assert edges[0][0] == nonzero[0] and edges[-1][1] == p.degree
    for (_, j, u), (i, _, v) in zip(edges, edges[1:]):
        assert j == i and u <= v


class TestNewtonPolygon:
    def test_trinomial_on_each_side_of_the_boundary(self):
        # x^5 - a x - 1: the middle vertex is on the hull iff |a|^5 > 1
        far = newton_polygon(Polynomial([-1, -1e6, 0, 0, 0, 1]))
        assert [(i, j) for i, j, _ in far] == [(0, 1), (1, 5)]
        assert far[0][2] == pytest.approx(1e-6, rel=1e-12)
        assert far[1][2] == pytest.approx(1e6 ** 0.25, rel=1e-12)
        near = newton_polygon(Polynomial([-1, -0.5, 0, 0, 0, 1]))
        assert near == [(0, 5, 1.0)]
        # on the boundary the three points are collinear: one edge
        assert newton_polygon(Polynomial([-1, -1, 0, 0, 0, 1])) == [(0, 5, 1.0)]

    def test_wilkinson_twenty(self):
        # the coefficients of prod (x - k) are log-concave (Newton's
        # inequalities), so every point is a vertex: 20 unit edges with
        # u_k = |c_k / c_(k+1)|, whose product is 20!
        p = poly_from_roots(range(1, 21))
        edges = newton_polygon(p)
        assert [(i, j) for i, j, _ in edges] == [(k, k + 1) for k in range(20)]
        for k, (_, _, u) in enumerate(edges):
            assert u == pytest.approx(abs(p.coeffs[k] / p.coeffs[k + 1]), rel=1e-12)
        assert math.prod(u for _, _, u in edges) == pytest.approx(
            math.factorial(20), rel=1e-12
        )
        _polygon_ok(p, edges)

    def test_zero_roots_start_the_polygon(self):
        # x^3 (x^2 - 4): the first edge starts at the zero-root count
        assert newton_polygon(Polynomial([0, 0, 0, -4, 0, 1])) == [(3, 5, 2.0)]
        assert newton_polygon(Polynomial([0, 0, 1])) == []

    def test_interior_zero_coefficients(self):
        edges = newton_polygon(Polynomial([1, 0, 0, 1e6, 0, 0, 1]))
        assert [(i, j) for i, j, _ in edges] == [(0, 3), (3, 6)]
        assert edges[0][2] == pytest.approx(1e-2, rel=1e-12)
        assert edges[1][2] == pytest.approx(1e2, rel=1e-12)
        assert newton_polygon(Polynomial([-32, 0, 0, 0, 0, 1])) == [
            (0, 5, pytest.approx(2.0, rel=1e-15))
        ]

    def test_extreme_scales(self):
        # from the logs: no ratio 1e400 or 1e600 is ever formed
        (edge,) = newton_polygon(Polynomial([1e200, 1e-100, 1e-200]))
        assert edge[:2] == (0, 2)
        assert edge[2] == pytest.approx(1e200, rel=1e-12)
        (edge,) = newton_polygon(Polynomial([1e300, 0, 0, 0, 0, 1e-300]))
        assert edge[:2] == (0, 5)
        assert edge[2] == pytest.approx(1e120, rel=1e-12)
        # radii past the float range: 1e-400 underflows, 1e600 overflows
        assert newton_polygon(Polynomial([1e-200, 1e200])) == [(0, 1, 0.0)]
        assert newton_polygon(Polynomial([1e300, 1e-300])) == [(0, 1, math.inf)]

    def test_edge_lengths_sum_to_n_minus_m(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        coeff = st.one_of(
            st.just(0j),
            st.builds(
                lambda m, e, t: m * 10.0**e * cmath.exp(1j * t),
                st.floats(0.1, 10.0),
                st.integers(-200, 200),
                st.floats(0.0, 6.3),
            ),
        )

        @given(st.lists(coeff, min_size=2, max_size=25))
        @settings(max_examples=300, deadline=None)
        def check(coeffs):
            p = Polynomial(coeffs)
            if p.degree < 1 or all(c == 0 for c in p.coeffs):
                return
            m = next(i for i, c in enumerate(p.coeffs) if c != 0)
            edges = newton_polygon(p)
            assert sum(j - i for i, j, _ in edges) == p.degree - m
            if edges:
                _polygon_ok(p, edges)

        check()

    def test_edges_count_the_roots_of_their_group(self):
        # roots grouped near 1e-3, 1 and 1e3: on a circle per group, each
        # edge's length is the number of mpmath roots near its radius; with
        # moduli spread within a group, a group's edges sum to that number
        mpmath = pytest.importorskip("mpmath")

        def mp_roots(p):
            with mpmath.workdps(40):
                cs = [mpmath.mpc(c.real, c.imag) for c in reversed(p.coeffs)]
                return [complex(r) for r in mpmath.polyroots(cs, maxsteps=200, extraprec=100)]

        def near(u, moduli):
            return sum(1 for r in moduli if u / 30 <= r <= u * 30)

        rng = random.Random(1111)
        for _ in range(15):
            circles, spread = [], []
            for center in (1e-3, 1.0, 1e3):
                k = rng.randint(1, 6)
                radius, phase = center * rng.uniform(0.5, 2), rng.uniform(0, 6.3)
                circles += [radius * cmath.exp(1j * (phase + 2 * math.pi * t / k)) for t in range(k)]
                spread += [
                    center * rng.uniform(0.5, 2) * cmath.exp(1j * rng.uniform(0, 6.3))
                    for _ in range(rng.randint(1, 5))
                ]
            p = poly_from_roots(circles)
            moduli = [abs(r) for r in mp_roots(p)]
            edges = newton_polygon(p)
            assert len(edges) == 3
            for i, j, u in edges:
                assert j - i == near(u, moduli)
            p = poly_from_roots(spread)
            moduli = [abs(r) for r in mp_roots(p)]
            edges = newton_polygon(p)
            for center in (1e-3, 1.0, 1e3):
                lengths = sum(j - i for i, j, u in edges if center / 30 <= u <= center * 30)
                assert lengths == near(center, moduli)


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

    def test_deflation_never_converges_onto_a_given_root(self):
        # Maehly's step divides (x - 1) out of (x - 1)(x - 2)(x - 3): from
        # starts all around 1, every polish finds 2 or 3
        p = poly_from_roots([1, 2, 3])
        for settle in (False, True):
            for k in range(24):
                for radius in (1e-5, 1e-3, 0.1, 0.5, 2.0):
                    x0 = 1 + radius * cmath.exp(2j * math.pi * k / 24)
                    root, res, _, converged = polish(
                        p, x0, 1e-12, 60, deflate=[1.0], settle=settle
                    )
                    assert converged
                    assert min(abs(root - 2), abs(root - 3)) <= 1e-9

    def test_deflated_roots_in_turn(self):
        # each polish from the same start, with the roots so far divided
        # out, finds one more root of p itself
        roots = [0.5 + 1j, 0.5 - 1j, -1.2, 0.3, 2 + 0.1j]
        p = poly_from_roots(roots)
        found: list[complex] = []
        for _ in roots:
            root, res, _, converged = polish(p, 0.1 + 0.1j, 1e-12, 60, deflate=found)
            assert converged and res <= 1e-12
            found.append(root)
        worst, _ = match_roots(found, roots)
        assert worst <= 1e-12

    def test_settle_keeps_the_best_iterate(self):
        # x^2 - 2 from 1.4 meets 1e-6 after two steps; three finishing
        # steps then leave the best iterate, at rounding level
        p = Polynomial([-2, 0, 1])
        plain = newton_polish(p, 1.4, tol=1e-6)
        settled = newton_polish(p, 1.4, tol=1e-6, settle=True)
        assert plain[1] > 1e-10
        assert settled[1] <= 1e-15
        assert abs(settled[0] - SQRT2) <= 1e-15

    def test_settle_does_not_stop_where_newton_still_moves(self):
        # near 8.57+0.08i Wilkinson's polynomial has a scaled residual of
        # 4e-14, yet Newton moves from there by 0.78: no root is near.
        # The plain polish stops at once; a settling one goes on to 9.
        p = poly_from_roots(range(1, 21))
        x0 = 8.5683 + 0.0775j
        assert newton_polish(p, x0, 1e-10) == (x0, scaled_residual(p, x0), 0)
        root, res, _ = newton_polish(p, x0, 1e-10, max_iter=80, settle=True)
        assert abs(root - 9) <= 1e-3
        assert res <= 1e-17

    def test_settle_takes_at_most_one_finishing_pass(self, monkeypatch):
        # x^2 - 2 from 1.4 meets 1e-10 on a step that also settles it. A
        # settled polish stops where p(x) is within Horner's rounding bound
        # or its step could move x only by rounding: the settling call
        # passes over p at most once more than the plain one, which stops
        # where the residual meets tol. The plain call's kernel is
        # _newton_pass, the settling call's _laguerre_pass; both are counted
        passes = []
        for name in ("_newton_pass", "_laguerre_pass"):
            kernel = getattr(polysolve.poly, name)

            def counted(terms, x, kernel=kernel):
                passes.append(x)
                return kernel(terms, x)

            monkeypatch.setattr(polysolve.poly, name, counted)
        p = Polynomial([-2, 0, 1])
        plain = newton_polish(p, 1.4, 1e-10)
        plain_passes = len(passes)
        passes.clear()
        settled = newton_polish(p, 1.4, 1e-10, settle=True)
        assert len(passes) <= plain_passes + 1
        assert settled[1] <= plain[1]
        # the start takes one pass, and at an exact root the one step that
        # settles is the only other
        passes.clear()
        assert newton_polish(Polynomial([-1, 0, 1]), 1.0, settle=True) == (1.0, 0.0, 0)
        assert len(passes) == 2

    def test_polish_returns_flag_instead_of_raising(self):
        p = Polynomial([-2, 0, 1])
        assert polish(p, 1.4) == (*newton_polish(p, 1.4), True)
        with pytest.raises(ConvergenceError) as exc:
            newton_polish(p, 1.4, tol=1e-30, max_iter=10)
        assert polish(p, 1.4, tol=1e-30, max_iter=10) == (*exc.value.best, False)


def _plain_laguerre(p, x0, tol=1e-12, max_iter=60, deflate=()):
    """Reference settling loop: the Horner recurrences for p, p' and p''/2,
    poly._scale for the residual scale, Laguerre's step on p / prod (x - r)
    with Maehly's step where Laguerre's is not finite or its denominator
    vanishes, and the exits newton_polish documents. The settling path must
    match it bit for bit."""
    n = p.degree
    m = n - len(deflate)
    eps = sys.float_info.epsilon

    def horner(x):
        f = d = h = 0.0
        for c in reversed(p.coeffs):
            h = h * x + d
            d = d * x + f
            f = f * x + c
        return f, d, h

    x = complex(x0)
    f, d, h = horner(x)
    best = (x, scaled_residual(p, x), 0)
    settled, left, it = False, 0, 0
    while it < max_iter or left:
        it += 1
        if settled and abs(f) <= 2.0 * n * eps * polysolve.poly._scale(p, x):
            return best  # |p(x)| within Horner's rounding bound
        if any(x == r for r in deflate):
            step = None
        elif f == 0:
            step = 0j
        else:
            s1 = s2 = 0j
            for r in deflate:
                s1 += 1.0 / (x - r)
                s2 += (1.0 / (x - r)) * (1.0 / (x - r))
            g = d / f - s1
            big_h = (d / f) * (d / f) - 2.0 * h / f - s2
            rad = (m - 1) * (m * big_h - g * g)
            step = None
            if abs(rad) < math.inf:
                root = cmath.sqrt(rad)
                den = g + root if abs(g + root) >= abs(g - root) else g - root
                if den:
                    step = m / den
            if step is None and d - f * s1:
                step = f / (d - f * s1)
        if step is None:
            x += 1e-8 * (1.0 + abs(x))
            f, d, h = horner(x)
        else:
            if settled and abs(step) <= 4.0 * eps * abs(x):
                return best  # a finishing step that only rounding can make
            x = x - step
            f, d, h = horner(x)
            res = scaled_residual(p, x)
            if res < best[1]:
                best = (x, res, it)
            if not settled and res <= tol and abs(step) <= math.sqrt(tol) * (1.0 + abs(x)):
                settled, left = True, 3
                continue
        if settled:
            left -= 1
            if left == 0:
                return best
    raise ConvergenceError("stalled", best)


class TestSettleReference:
    def test_matches_plain_laguerre_reference(self):
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
        wilkinson = list(poly_from_roots(range(1, 21)).coeffs)
        wide = [-1, -1e200, 0, 1]  # x^3 - 1e200 x - 1: Laguerre's G^2 overflows

        @given(
            st.lists(coeff, min_size=2, max_size=11),
            coeff,
            st.sampled_from([1e-10, 1e-12, 1e-30]),
            st.integers(1, 40),
            st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False), max_size=3),
        )
        @example(wilkinson, 8.5683 + 0.0775j, 1e-10, 80, [])  # no root near
        @example([-1, 0, 1], 1.0, 1e-12, 60, [])  # an exact root
        @example([-6, 11, -6, 1], 1.0, 1e-12, 60, [1.0])  # on a deflated root
        @example(wide, -1e-200 * cmath.exp(0.3j), 1e-10, 80, [])
        @example(wide, 1e100 * cmath.exp(0.3j), 1e-10, 80, [-1e-200])
        @settings(max_examples=300, deadline=None)
        def check(coeffs, x0, tol, max_iter, deflate):
            p = Polynomial(coeffs)
            args = (p, x0, tol, max_iter, deflate)
            assert _newton_outcome(
                lambda *a: newton_polish(*a, settle=True), *args
            ) == _newton_outcome(_plain_laguerre, *args)

        check()

    def test_the_wide_example_takes_maehly_steps(self):
        # near -1e-200 on x^3 - 1e200 x - 1 Laguerre's terms overflow, so the
        # example above runs the Maehly fallback; the polish still converges
        p = Polynomial([-1, -1e200, 0, 1])
        x0 = -1e-200 * cmath.exp(0.3j)
        f, d = eval_poly_and_deriv(p, x0)
        assert not abs((d / f) ** 2) < math.inf
        root, res, _ = newton_polish(p, x0, 1e-10, 80, settle=True)
        assert abs(root + 1e-200) <= 1e-215 and res <= 1e-10


class TestTermsMemo:
    def test_a_twin_with_a_zero_of_the_other_sign_gets_its_own_terms(self):
        # equal in value, so a memo keyed by value would hand p's terms,
        # zero signs and all, to its twin
        p = Polynomial([-2, 0j, 1])
        twin = Polynomial([-2, complex(-0.0, -0.0), 1])
        assert p == twin
        for poly in (p, twin, p):
            got = newton_polish(poly, 1.4, settle=True)
            held, terms = polysolve.poly._last_terms
            assert held is poly
            assert repr(terms) == repr(list(zip(reversed(poly.coeffs), map(abs, poly.coeffs))))
            polysolve.poly._last_terms = (None, None)
            assert repr(newton_polish(poly, 1.4, settle=True)) == repr(got)

    def test_threads_alternating_two_polynomials(self):
        # four threads polish two polynomials in turn; whatever the
        # interleaving, each polish reads whole terms of its own polynomial
        import threading

        p, q = poly_from_roots([1, 2, 3]), poly_from_roots([-1j, 0.5, 4, -2])
        calls = [(p, 2.6, ()), (q, 0.4 + 0.1j, [4.0]), (p, 0.7, [2.0]), (q, 3.5, ())]
        want = [polish(f, x0, 1e-12, 60, d, settle) for f, x0, d in calls for settle in (False, True)]
        bad = []

        def worker(k):
            for _ in range(150):
                got = [polish(f, x0, 1e-12, 60, d, settle) for f, x0, d in calls[k:] + calls[:k]
                       for settle in (False, True)]
                if got != want[2 * k:] + want[:2 * k]:
                    bad.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad
        assert all(res <= 1e-12 and ok for _, res, _, ok in want)

    def test_only_the_last_polynomial_is_held(self):
        ps = [poly_from_roots([k + 1.0, -0.5j]) for k in range(100)]
        before = [sys.getrefcount(f) for f in ps]
        assert all(polish(f, 0.3 + 0.2j, settle=True)[3] for f in ps)
        assert polysolve.poly._last_terms[0] is ps[-1]
        assert [sys.getrefcount(f) for f in ps] == before[:-1] + [before[-1] + 1]


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

    def test_zero_roots_start_below_the_polygon(self):
        # x^3 (x^2 + 1): the three zeros start on a circle of radius 1/2
        report = all_roots_oracle(Polynomial([0, 0, 0, 1, 0, 1]))
        assert report.warnings == []
        roots = sorted(report.values(), key=abs)
        assert len(roots) == 5
        assert all(abs(x) <= 1e-9 for x in roots[:3])
        worst, _ = match_roots(roots[3:], [1j, -1j])
        assert worst <= 1e-10

    def test_nan_coefficient_never_converges(self):
        # every move is NaN, and a NaN move must not read as converged
        with pytest.raises(ConvergenceError):
            all_roots_oracle(Polynomial([1, math.nan, 1]))

    def test_nan_sweep_ends_the_iteration(self, monkeypatch):
        # a NaN iterate spreads to every other one and never leaves, so the
        # oracle gives up after the first NaN sweep: n evaluations in it,
        # none in the residual pass over the NaN roots
        calls = 0

        def counted(p, x):
            nonlocal calls
            calls += 1
            return eval_poly(p, x)

        monkeypatch.setattr(polysolve.poly, "eval_poly", counted)
        # a NaN coefficient, and a monic form that overflows (1e400)
        for p in (Polynomial([1, math.nan, 1]), Polynomial([1e200] + [0] * 9 + [1e-200])):
            calls = 0
            with pytest.raises(ConvergenceError, match="oracle stalled with residual inf"):
                all_roots_oracle(p)
            assert 0 < calls <= 2 * p.degree, (p, calls)

    def test_starts_are_not_grims_polygon_points(self, monkeypatch):
        # the first sweep evaluates each start before it moves it, so the
        # first n evaluation points are the starts
        rng = random.Random(20)
        cases = [poly_from_roots(range(1, 21)), Polynomial([-1, -1e6, 0, 0, 0, 1])]
        cases += [unit_disk_poly(rng, rng.randint(2, 24)) for _ in range(40)]
        cases += [Polynomial([0, 0] + list(p.coeffs)) for p in cases[-5:]]
        seen: list[complex] = []

        def spy(p, x):
            seen.append(x)
            return eval_poly(p, x)

        monkeypatch.setattr(polysolve.poly, "eval_poly", spy)
        for p in cases:
            seen.clear()
            with contextlib.suppress(ConvergenceError):
                all_roots_oracle(p)
            starts = seen[: p.degree]
            m = next(i for i, c in enumerate(p.coeffs) if c != 0)
            q = Polynomial(p.coeffs[m:])
            grims = [x for *_, x in _polygon_points(q, polysolve.grim._TURN)]
            assert len(set(starts)) == p.degree
            # relative: the root of x^5 - 1e6 x - 1 near 1e-6 starts there
            assert all(abs(x - g) > 1e-3 * abs(x) for x in starts for g in grims)


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

    def test_nan_distance_is_not_finite(self):
        worst, pairs = match_roots([1, 2], [math.nan, math.nan])
        assert not math.isfinite(worst)
        assert len(pairs) == 2
        worst, _ = match_roots([1, math.nan], [1, 5])
        assert not math.isfinite(worst)


class TestDistinctRoots:
    def test_lowest_residual_wins(self):
        worse = RootEntry(1.0 + 0j, 1e-9, branch=0)
        better = RootEntry(1.0 + 5e-7j, 1e-13, branch=1)
        assert distinct_roots([worse, better]) == [better]

    def test_tolerance_is_relative(self):
        big = [RootEntry(1e6 + 0j, 1e-12), RootEntry(1e6 + 0.5 + 0j, 1e-11)]
        assert distinct_roots(big) == big[:1]
        small = [RootEntry(1e-3 + 0j, 1e-12), RootEntry(2e-3 + 0j, 1e-11)]
        assert distinct_roots(small) == small
        near = [RootEntry(0j, 1e-12), RootEntry(1e-6 + 0j, 1e-11)]
        assert distinct_roots(near) == near[:1]

    def test_tie_break_is_deterministic(self):
        # equal residuals: the smaller real part, then imaginary part, wins
        a = RootEntry(1.0 + 1e-7j, 1e-12, branch=0)
        b = RootEntry(1.0 + 0j, 1e-12, branch=1)
        c = RootEntry(1.0 - 1e-7j, 1e-12, branch=2)
        for order in ([a, b, c], [c, b, a], [b, a, c]):
            assert distinct_roots(order) == [c]
        assert distinct_roots([a, RootEntry(1.0 - 1e-7 + 0j, 1e-12)]) == [
            RootEntry(1.0 - 1e-7 + 0j, 1e-12)
        ]


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
