"""The one series stopping rule, numerics.sum_series: synthetic magnitude
sequences, and agreement with the two loops it replaced: bit for bit on the
plain pFq sum, and, where that loop converged, in the verdict and the sum
on the trinomial series."""

import cmath
import itertools
import math
import re

from hypothesis import example, given, settings, strategies as st

from polysolve import DivergenceError, PFQParams, Trinomial
from polysolve import pfq_eval, trinomial_pfq_root, trinomial_series_root
from polysolve.numerics import _pfq_terms, sum_series
from polysolve.series import argument_modulus_constant, trinomial_log_term


# the relative tolerance of every series sum, numerics._REL_TOL
REL_TOL = 1e-12


def _bits(z):
    z = complex(z)
    return (z.real.hex(), z.imag.hex())


class TestSyntheticSequences:
    def test_geometric_decay_converges(self):
        total, n, status = sum_series(1.0, (0.5**k for k in itertools.count(1)), 400, 1e-12)
        assert status == "converged"
        # 0.5^n <= 1e-12 * 2 first at n = 39 (1.8e-12)
        assert n == 39
        assert total == 2.0 - 0.5**39  # every partial sum is exact

    def test_growth_from_the_start_is_counted_from_term_16(self):
        total, n, status = sum_series(1.0, (2.0**k for k in itertools.count(1)), 400, 1e-12)
        # terms 16..23 each exceed the one before: the eighth growth ends it
        assert (status, n) == ("diverged", 23)
        assert total == 2.0**24 - 1

    def test_growth_after_term_16(self):
        def terms():
            for k in itertools.count(1):
                yield 0.5**k if k <= 30 else 0.5**30 * 2.0 ** (k - 30)

        _, n, status = sum_series(1.0, terms(), 400, 1e-15)
        assert (status, n) == ("diverged", 38)

    def test_a_broken_run_starts_over(self):
        # seven growths, one step down, seven more: never eight in a row
        def mags():
            level = 1.0
            for k in itertools.count(1):
                level *= 0.5 if k % 8 == 0 else 1.5
                yield level

        _, n, status = sum_series(1e6, mags(), 100, 1e-12)
        assert (status, n) == ("truncated", 100)

    def test_zero_terms_are_skipped(self):
        # growth runs over the zeros in between, and zeros never converge
        def gapped():
            for k in itertools.count(1):
                yield 2.0**k if k % 2 else 0j

        _, n, status = sum_series(1.0, gapped(), 400, 1e-12)
        assert (status, n) == ("diverged", 31)  # odd terms 17, 19, ..., 31
        total, n, status = sum_series(1.0, itertools.chain([0.5], itertools.repeat(0j)), 50, 1e-12)
        assert (status, n, total) == ("truncated", 50, 1.5)

    def test_nan_reads_diverged_at_the_budget(self):
        total, n, status = sum_series(1.0, itertools.repeat(complex("nan")), 19, 1e-12)
        assert (status, n) == ("diverged", 19)
        assert math.isnan(total.real)

    def test_infinite_sum_is_diverged(self):
        total, n, status = sum_series(1.0, iter([1e308, 1e308, 1.0]), 10, 1e-12)
        assert (status, n) == ("diverged", 2)
        assert total == math.inf

    def test_a_modulus_past_the_float_range_is_diverged(self):
        # abs() raises OverflowError on these finite parts
        total, n, status = sum_series(1.0, iter([0.5, complex(1.5e308, 1.5e308), 0.25]), 10, 1e-12)
        assert (status, n, total) == ("diverged", 2, complex(1.5 + 1.5e308, 1.5e308))

    def test_a_nan_after_an_overflow_is_diverged(self):
        # an overflow caught before the sum leaves errno at ERANGE, and
        # CPython's abs() of a complex NaN then raises OverflowError
        nan = complex(math.nan, math.nan)
        try:
            cmath.exp(1000.0)
        except OverflowError:
            pass
        total, n, status = sum_series(1.0, itertools.repeat(nan), 19, 1e-12)
        assert status == "diverged" and math.isnan(total.real)

    def test_iterator_that_runs_out_is_exact(self):
        for budget in (3, 10):
            total, n, status = sum_series(1.0, iter([0.5, 0.25]), budget, 1e-12)
            assert (status, n, total) == ("converged", 2, 1.75)
        assert sum_series(1.0, iter([]), 1, 1e-12) == (1.0, 0, "converged")

    def test_at_most_budget_terms_are_taken(self):
        taken = []

        def terms():
            for k in itertools.count(1):
                taken.append(k)
                yield 1.0

        assert sum_series(1.0, terms(), 5, 1e-12) == (6.0, 5, "truncated")
        assert taken == [1, 2, 3, 4, 5]

    def test_spent_budget(self):
        # a budget that ends where the terms do is spent all the same
        total, n, status = sum_series(1.0, iter([0.5, 0.25]), 2, 1e-12)
        assert (status, n, total) == ("truncated", 2, 1.75)
        total, n, status = sum_series(1.0, iter([0.5, 0.25]), 1, 1e-12)
        assert (status, n, total) == ("truncated", 1, 1.5)
        # the latest term still exceeds the sum: diverged
        total, n, status = sum_series(1.0, ((-3.0) ** k for k in itertools.count(1)), 5, 1e-12)
        assert (status, n, total) == ("diverged", 5, -182.0)
        assert sum_series(1.0, itertools.repeat(1.0), 0, 1e-12) == (1.0, 0, "truncated")


def _reference_sum_series(term0, terms, budget, rel_tol):
    """sum_series as a plain loop over a counter: the reference it must
    match bit for bit."""
    total = term0
    last = 0.0
    run = 0
    n = 0
    status = "converged"
    try:
        for term in itertools.islice(terms, budget):
            n += 1
            total += term
            mag = abs(term)
            if not mag:
                continue
            if n >= 16 and mag > last > 0.0:
                run += 1
                if run == 8:
                    status = "diverged"
                    break
            else:
                run = 0
            last = mag
            if mag <= rel_tol * abs(total):
                break
        else:
            if n == budget:
                status = "diverged" if last > abs(total) else "truncated"
    except OverflowError:  # abs() past the float range
        status = "diverged"
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        status = "diverged"
    return total, n, status


_odd_term = st.sampled_from(
    [0j, 0.0, complex("nan"), complex("inf"), complex(0.0, -math.inf), complex(1e308, 1e308)]
)
_plain_term = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _periodic_run(draw):
    """Terms whose classes mod a period each grow or decay geometrically, a
    zigzag: growth runs that the period breaks, runs of 8, or convergence."""
    period = draw(st.integers(1, 13))
    bases = draw(st.lists(_plain_term, min_size=period, max_size=period))
    ratio = draw(st.sampled_from([0.3, 0.9, 0.999, 1.0, 1.001, 1.5, 3.0]))
    length = draw(st.integers(1, 16 + 10 * period))
    return [bases[n % period] * ratio ** (n // period) for n in range(length)]


_pieces = st.one_of(
    _odd_term.map(lambda t: [t]),
    st.lists(_plain_term, max_size=4),
    st.lists(st.just(0j), min_size=1, max_size=20),  # a reciprocal-Gamma gap
    _periodic_run(),
)


@given(
    st.lists(_pieces, max_size=6).map(lambda ps: [t for p in ps for t in p]),
    st.sampled_from([1.0, 1 + 0j, 0j, 2.5 - 1j, 1e-300j]),
    st.integers(0, 400),  # a budget past the terms: the iterator runs out early
    st.sampled_from([1e-15, 1e-12, 1e-6, 0.5]),
)
@example([0j] * 40, 1.0, 40, 1e-12)  # zero terms, budget spent
@example([0.5, 0j, complex("nan"), 0.25], 1.0, 10, 1e-12)  # NaN, runs out early
@example([1.0, complex("inf"), 1.0], 1.0, 2, 1e-12)  # inf, budget spent
@example([2.0**k for k in range(1, 60)], 1.0, 60, 1e-12)  # 8 growths
@example([3.0 ** (k // 5) * (k % 5 + 1) for k in range(1, 80)], 1.0, 80, 1e-12)  # a zigzag
@example([0.5**k for k in range(1, 30)], 1.0, 29, 1e-300)  # spent while decaying
@example([0.5, complex(1.5e308, 1.5e308), 0.25], 1.0, 10, 1e-12)  # |term| past the range
@example([complex(1e308, 1e308), complex(1e308, 1e308)], 1.0, 10, 1e-12)  # |sum| past it
@settings(max_examples=600, deadline=None)
def test_sum_series_matches_the_reference_loop(terms, term0, budget, rel_tol):
    got = sum_series(term0, iter(terms), budget, rel_tol)
    want = _reference_sum_series(term0, iter(terms), budget, rel_tol)
    assert type(got[0]) is type(want[0])
    assert (_bits(got[0]), *got[1:]) == (_bits(want[0]), *want[1:])


def _parent_trinomial_loop(t, k, max_terms):
    """The per-class loop trinomial_series_root ran before sum_series, with
    its terms from trinomial_log_term: (sum, terms_used, status), and the
    sum of the magnitudes of the terms it added."""
    s = t.s
    total = cmath.exp(cmath.log(t.q) / s + 2j * math.pi * k / s)
    size = abs(total)
    prev_by_class = [None] * s
    growth_by_class = [0] * s
    recent = []
    terms_used = 0
    status = "truncated"
    for n in range(1, max_terms + 1):
        term = trinomial_log_term(t, k, n)
        total += term
        terms_used = n
        mag = abs(term)
        size += mag
        cls = n % s
        if mag == 0.0:
            continue
        if mag > 1e100:  # never reached in the domain below
            status = "diverged"
            break
        prev = prev_by_class[cls]
        if prev is not None:
            if mag > prev and n >= 16:
                growth_by_class[cls] += 1
                if growth_by_class[cls] >= 8:
                    status = "diverged"
                    break
            else:
                growth_by_class[cls] = 0
        prev_by_class[cls] = mag
        recent.append(mag)
        if len(recent) > s:
            recent.pop(0)
        if n >= s and max(recent) <= REL_TOL * abs(total):
            status = "converged"
            break
    if status == "truncated":
        seen = [m for m in prev_by_class if m is not None]
        if seen and max(seen) > abs(total):
            status = "diverged"
    return (total, terms_used, status), size


def _series_outcome(t, k, max_terms):
    try:
        _, diag = trinomial_series_root(t, k, max_terms)
    except DivergenceError as exc:
        used = int(re.search(r"after (\d+) terms", str(exc)).group(1))
        return exc.partial, used, "diverged"
    return diag.series_value, diag.terms_used, diag.status


@given(
    st.integers(2, 12).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s - 1))),
    st.floats(0.01, 3.0),  # the regrouped-argument modulus rho
    st.floats(0.2, 5.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.sampled_from([5, 20, 60, 400]),
)
# the parent loop reads branch 1 diverged on its own, branch 0 truncated
@example((2, 1), 1.0, 1.0, 0.0, 0.0, 5)
@settings(max_examples=120, deadline=None)
def test_trinomial_matches_the_parent_loop(sb, rho, q_mod, q_arg, alpha_arg, max_terms):
    s, b = sb
    q = cmath.rect(q_mod, q_arg)
    alpha_mod = (rho * q_mod ** (s - b) / float(argument_modulus_constant(s, b))) ** (1.0 / s)
    t = Trinomial(s, b, cmath.rect(alpha_mod, alpha_arg), q)
    # the loop counts max_terms over all s classes together, and the series
    # gives each class max_terms, so their term counts differ. Every branch
    # of the series reads the trinomial's terms_used and verdict; where the
    # loop converged, the series converged too, and the sums agree to the
    # level of the log form's terms, which are off by up to about 1e-11
    # relative
    outcomes = [_series_outcome(t, k, max_terms) for k in range(s)]
    assert len({(used, status) for _, used, status in outcomes}) == 1, t
    for k, (got, _, status) in enumerate(outcomes):
        (want, _, want_status), size = _parent_trinomial_loop(t, k, max_terms)
        if want_status == "converged":
            assert status == "converged", (t, k)
            assert abs(got - want) <= 1e-11 * size, (t, k)


def _parent_pfq_loop(params, z, max_terms=400):
    """The plain-path loop of pfq_eval before sum_series:
    (sum, terms_used, status), plus the last term summed."""
    z = complex(z)
    terminate_at = None
    for a in params.upper:
        if a.imag == 0 and a.real <= 0 and a.real == math.floor(a.real):
            terminate_at = -int(a.real) if terminate_at is None else min(terminate_at, -int(a.real))

    def finished(total, used, status):
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            status = "diverged"
        return _bits(total), used, status

    total = 1.0
    term = 1.0
    prev_mag = 1.0
    growth = 0
    for n in range(max_terms - 1):
        if terminate_at is not None and n >= terminate_at:
            return finished(total, n + 1, "converged"), term
        num = 1.0
        for a in params.upper:
            num *= a + n
        den = n + 1.0
        for b in params.lower:
            den *= b + n
        term = term * num / den * z
        total += term
        mag = abs(term)
        if mag <= REL_TOL * max(abs(total), 1e-300):
            return finished(total, n + 2, "converged"), term
        if n + 1 >= 16 and mag > prev_mag:
            growth += 1
            if growth >= 8:
                return (_bits(total), n + 2, "diverged"), term
        else:
            growth = 0
        prev_mag = mag
    ends = terminate_at is not None and terminate_at < max_terms
    return finished(total, max_terms, "converged" if ends else "truncated"), term


_param = st.one_of(
    st.floats(-6.0, 6.0).map(lambda x: round(x, 1)),
    st.integers(-6, 0).map(float),  # terminating upper parameters
)


@given(
    st.lists(_param, max_size=3),
    st.lists(st.floats(0.05, 6.0).map(lambda x: round(x, 2)), max_size=3),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.integers(1, 60) | st.just(400),
)
@example([1.0], [], 0j, 2)  # z = 0
@example([1.0], [], 0j, 1)
@example([-4.0], [], 1.0 + 0j, 5)  # terminates at the last term allowed
@example([1.0], [], -3.0 + 0j, 5)  # budget spent while the terms still grow
@example([-5.0, 1.5], [2.5], 0.7 + 0.2j, 400)  # terminates at term 5
@example([-3.0], [-6.0], 2.0 - 1.0j, 400)  # terminates before the lower pole
@settings(max_examples=400, deadline=None)
def test_plain_pfq_matches_the_parent_loop(upper, lower, z, max_terms):
    params = PFQParams(tuple(upper), tuple(lower))
    res = pfq_eval(params, z, max_terms)
    want, last = _parent_pfq_loop(params, z, max_terms)
    value, used, status = want
    # the differences on purpose: a spent budget whose last term still
    # exceeds the sum now reads diverged, as the trinomial series did; and
    # at z = 0 the series is its constant term, one term and converged,
    # where the parent summed the zero term 1 too (or read truncated when
    # max_terms left no room for it)
    if status == "truncated" and abs(last) > abs(complex(res.value)):
        status = "diverged"
    if z == 0:
        used, status = 1, "converged"
    assert (_bits(res.value), res.terms_used, res.status) == (value, used, status)


class TestStepTables:
    """pfq_eval works each step factor out from the parameters as the sum
    reaches it, with no table of steps to read past; a long sum, past 2,048
    terms, must still be the parent loop's, bit for bit."""

    def test_sum_past_the_table_matches_the_parent_loop(self):
        params = PFQParams((1.0,), ())
        for max_terms in (30, 400):
            res = pfq_eval(params, 0.99, max_terms)
            want, _ = _parent_pfq_loop(params, 0.99, max_terms)
            assert (_bits(res.value), res.terms_used, res.status) == want
            assert want[1:] == (max_terms, "truncated")

    def test_sum_past_the_table_cap_matches_the_parent_loop(self):
        for params, z, max_terms in [
            (PFQParams((1.0,), ()), 0.999, 2048 + 500),
            (PFQParams((0.5, 1.25), (1.75,)), 0.995, 1500),
        ]:
            res = pfq_eval(params, z, max_terms)
            want, _ = _parent_pfq_loop(params, z, max_terms)
            assert (_bits(res.value), res.terms_used, res.status) == want
            assert want[1:] == (max_terms, "truncated")

    def test_terminating_sum_tables_only_its_steps(self):
        # -3 ends the series at term 3, before the lower pole at -6; the sum
        # works out only the steps up to its last nonzero term
        for params, z in [
            (PFQParams((-5.0, 1.5), (2.5,)), 0.7 + 0.2j),
            (PFQParams((-3.0,), (-6.0,)), 2.0 - 1.0j),
        ]:
            for _ in range(2):  # a second sum of the same series is the same
                res = pfq_eval(params, z)
                want, _ = _parent_pfq_loop(params, z)
                assert (_bits(res.value), res.terms_used, res.status) == want
            terminate_at = -int(params.upper[0].real)
            assert res.terms_used == terminate_at + 1
            terms = list(_pfq_terms(params, z, terminate_at))
            assert len(terms) == terminate_at + 1 and terms[-1] != 0

    def test_a_suspended_sum_reads_what_another_added(self):
        # the first sum stops part way, a second sum of the same series runs
        # to completion meanwhile, and the first then runs on to its end
        params = PFQParams((0.5, 1.25), (1.75,))
        z = 0.995
        want_long, _ = _parent_pfq_loop(params, z, 1500)
        want_short, _ = _parent_pfq_loop(params, z, 300)
        assert want_long[1] == 1500 > 300
        first = _pfq_terms(params, z, None)
        head = list(itertools.islice(first, 50))
        second = pfq_eval(params, z, 300)
        total, n, status = sum_series(head[0], itertools.chain(head[1:], first), 1500 - 1)
        first.close()
        assert (_bits(total), n + 1, status) == want_long
        assert (_bits(second.value), second.terms_used, second.status) == want_short
