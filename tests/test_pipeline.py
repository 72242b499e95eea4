import cmath
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from polysolve import (
    PFQParams,
    Polynomial,
    Quadrinomial,
    Trinomial,
    cross_check,
    pfq_eval,
    solve,
)
from polysolve.cli import main
from polysolve import pipeline
from polysolve.pipeline import METHODS, shape_of
from polysolve.poly import RootEntry, RootReport, parse_poly, poly_from_roots, scaled_residual
from polysolve.series import argument_modulus_constant

# one input per method, as the CLI arguments and as the library equation
CASES = {
    "auto": (["--quadrinomial", "7", "2", "0.1", "2", "0.5"], Quadrinomial(7, 2, 0.1, 2, 0.5)),
    "closed": (["--coeffs", "-1,0,0,1"], parse_poly("-1,0,0,1")),
    "split": (["--coeffs", "-1,0,0,0,0,0,1"], parse_poly("-1,0,0,0,0,0,1")),
    "series": (["--trinomial", "5", "1", "1", "1"], Trinomial(5, 1, 1, 1)),
    "pfq": (["--trinomial", "5", "2", "0.3", "1.1"], Trinomial(5, 2, 0.3, 1.1)),
    "radical": (["--trinomial", "3", "1", "1", "1"], Trinomial(3, 1, 1, 1)),
    "grim": (["--coeffs", "1,1,0,0,1"], parse_poly("1,1,0,0,1")),
    "adjacent": (["--coeffs", "-1,1,4,1,0,0,0,1"], parse_poly("-1,1,4,1,0,0,0,1")),
    "oracle": (["--coeffs", "-1,0,1"], parse_poly("-1,0,1")),
}


def test_every_method_has_a_case():
    assert set(CASES) == {"auto", *METHODS}


@pytest.mark.parametrize("method", sorted(CASES))
def test_library_roots_equal_cli_json_bit_for_bit(method):
    argv, eq = CASES[method]
    out = io.StringIO()
    assert main(["solve", *argv, "--method", method, "--json"], out=out, err=io.StringIO()) == 0
    doc = json.loads(out.getvalue())
    report = solve(eq, method)
    assert report.method == doc["method"]
    assert report.values() == [complex(r["re"], r["im"]) for r in doc["roots"]]


class TestShape:
    def test_trinomial(self):
        shape = shape_of(Polynomial([-2, 0, -0.5, 0, 0, 2]))  # 2x^5 - 0.5x^2 - 2
        assert shape.tri == Trinomial(5, 2, 0.25, 1)
        assert shape.quad is None and shape.septic is None

    def test_quadrinomial(self):
        shape = shape_of(Polynomial([-0.5, 2, 0.1, 0, 0, 0, 0, 1]))
        assert shape.quad == Quadrinomial(7, 2, 0.1, 2, 0.5)
        assert shape.tri is None
        assert shape.septic == (0, 0.1, 2, -0.5)

    def test_general(self):
        shape = shape_of(Polynomial([1, 1, 1, 1, 1, 1]))
        assert (shape.tri, shape.quad, shape.septic) == (None, None, None)

    def test_given_shapes_are_kept(self):
        # x^5 - 1 reads as no trinomial, x^7 + 2x - 1 as a trinomial
        assert shape_of(Trinomial(5, 1, 0, 1)).tri == Trinomial(5, 1, 0, 1)
        given = Quadrinomial(7, 3, 0, 2, 1)
        shape = shape_of(given)
        assert shape.quad == given and shape.tri is None
        assert solve(given, "series").method == "series-quadrinomial"

    def test_constant_is_rejected(self):
        with pytest.raises(ValueError, match="constant polynomial"):
            shape_of(Polynomial([3]))


@pytest.mark.parametrize("method, eq, message", [
    ("closed", Polynomial([1, 1, 1, 1, 1, 1]), "closed method needs degree <= 4"),
    ("split", Polynomial([1, 1, 0, 0, 0, 1]), "split needs even degree 4..10"),
    ("pfq", Polynomial([1, 1, 1, 1, 1, 1]), "pfq method needs a trinomial shape"),
    ("series", Polynomial([1, 1, 1, 1, 1, 1]), "series method needs"),
    ("radical", Polynomial([1, 1, 1, 1, 1, 1]), "radical method needs"),
    ("adjacent", Polynomial([1, 1, 1, 1, 1, 1]), "adjacent method needs"),
    ("newton", Polynomial([1, 1]), "unknown method 'newton'"),
])
def test_usage_errors(method, eq, message):
    with pytest.raises(ValueError, match=message):
        solve(eq, method)


@pytest.mark.parametrize("method", ["series", "pfq", "radical"])
def test_branch_loop_drops_aliased_branches(method):
    # branch k + s is branch k again
    report = solve(Trinomial(5, 1, 1, 1), method, branches=[0, 5])
    assert len(report.roots) == 1
    assert report.warnings == []


@pytest.mark.parametrize("method", sorted(CASES))
def test_empty_branch_list_is_rejected(method):
    # every method, including those that take no branches
    with pytest.raises(ValueError, match="branches must be nonempty"):
        solve(CASES[method][1], method, branches=[])


@pytest.mark.parametrize("max_terms", [0, 2.5, 400.0])
@pytest.mark.parametrize("call", ["solve", "pfq_eval"])
def test_max_terms_must_be_an_int_of_at_least_one(call, max_terms):
    # the two calls that take max_terms from the command line check it
    with pytest.raises(ValueError, match="max_terms must be an int >= 1"):
        if call == "solve":
            solve(Trinomial(5, 1, 1, 1), "series", None, max_terms)
        else:
            pfq_eval(PFQParams((1,), ()), 0.5, max_terms)


def test_grim_route_finds_every_root_whatever_the_branches():
    # GRIM runs the orbits of every branch: on Wilkinson's polynomial,
    # those of branch 0 alone found only 15 of the 20 roots
    p = poly_from_roots(range(1, 21))
    report = solve(p, "grim", [0])
    assert len(report.roots) == 20 and report.warnings == []
    assert repr(report) == repr(solve(p, "grim"))


def test_cross_check_scales_each_root_by_its_own_modulus():
    # the roots of this cubic are 1e-8, 1 and 1e8; a bound scaled by the
    # largest root let any root within 10 of the oracle's pass, such as
    # these two wrong ones beside the right 1e8
    p = Polynomial([-1.0, 100000001.00000001, -100000001.00000001, 1.0])
    wrong = [0.094441782683134079, 0.90555823966860771, 1e8]
    report = RootReport([RootEntry(complex(x), 0.0) for x in wrong], "test")
    assert cross_check(p, report, 1e-8) == "mismatch"
    # the oracle's absolute stop is out of reach at the root 1e8
    assert report.warnings == [
        "oracle hit the sweep cap; residuals still acceptable",
        "oracle cross-check distance 9.444e-02",
    ]
    assert cross_check(p, solve(p), 1e-8) == "ok"


def test_cross_check_rejects_non_finite_roots():
    p = Polynomial([-1, 0, 1])
    report = RootReport([RootEntry(1.0 + 0j, 0.0), RootEntry(complex("nan"), 0.0)], "test")
    assert cross_check(p, report, 1e-8) == "mismatch"
    assert report.warnings == ["root (nan+0j) is not finite"]


def test_cross_check_names_a_non_finite_root_without_the_oracle():
    # the same warning as with the oracle; the root count alone decides
    p = Polynomial([-1, 0, 1])
    report = RootReport([RootEntry(1.0 + 0j, 0.0), RootEntry(complex("nan"), 0.0)], "test")
    assert cross_check(p, report, None) == "ok"
    assert report.warnings == ["root (nan+0j) is not finite"]
    short = RootReport([RootEntry(complex("inf"), 0.0)], "test")
    assert cross_check(p, short, None) == "partial"
    assert short.warnings == ["root (inf+0j) is not finite"]


def test_cross_check_rejects_a_wrong_report_on_wilkinson_twenty():
    # the oracle's polygon start keeps x^20 finite; from a start circle of
    # radius 7e18 every Durand-Kerner step was NaN and any 20 finite roots
    # read ok
    p = poly_from_roots(range(1, 21))
    fake = RootReport([RootEntry(complex(k), 0.0) for k in range(6, 26)], "test")
    assert cross_check(p, fake, 1e-8) == "mismatch"
    assert fake.warnings[-1].startswith("oracle cross-check distance")


def test_cross_check_rejects_an_oracle_with_non_finite_roots():
    # the roots are +-1e200 i, but the monic form's 1e400 overflows, so the
    # oracle ends on NaN roots; they must not match the wrong roots 1 and 2
    p = Polynomial([1e200, 0, 1e-200])
    fake = RootReport([RootEntry(1 + 0j, 0.0), RootEntry(2 + 0j, 0.0)], "test")
    assert cross_check(p, fake, 1e-8) == "mismatch"
    assert fake.warnings[-1].startswith("oracle root") and "not finite" in fake.warnings[-1]


def test_cross_check_forwards_a_stalled_oracle_message(monkeypatch):
    # the oracle's NaN iterates end in ConvergenceError; its message joins the
    # report's warnings, and the status and exit code stay as they were
    p = Polynomial([1e200, 0, 1e-200])

    def fake(*args):
        return RootReport([RootEntry(1 + 0j, 0.0), RootEntry(2 + 0j, 0.0)], "test")

    report = fake()
    assert cross_check(p, report, 1e-8) == "mismatch"
    assert report.warnings == [
        "oracle stalled with residual inf",
        "oracle root (nan+nanj) is not finite",
    ]
    monkeypatch.setattr("polysolve.cli.solve", fake)
    out = io.StringIO()
    assert main(["solve", "--coeffs=1e200,0,1e-200", "--json"], out=out, err=io.StringIO()) == 0
    printed = json.loads(out.getvalue())
    assert printed["status"] == "mismatch"
    assert printed["warnings"] == report.warnings


def test_cross_check_forwards_the_oracle_warnings():
    # with roots of modulus 1e5 the oracle's absolute stop on a move of
    # 1e-12 is out of reach, so it ends at its sweep cap and says so; the
    # report carries that, and the status and exit code stay as they were
    p = poly_from_roots([1e5 * cmath.exp(1j * (k + 0.3)) for k in range(5)])
    report = solve(p)
    assert cross_check(p, report, 1e-8) == "ok"
    assert report.warnings == ["oracle hit the sweep cap; residuals still acceptable"]
    out = io.StringIO()
    coeffs = ",".join(repr(c).strip("()") for c in p.coeffs)
    assert main(["solve", f"--coeffs={coeffs}", "--json"], out=out, err=io.StringIO()) == 0
    printed = json.loads(out.getvalue())
    assert printed["status"] == "ok"
    assert printed["warnings"] == report.warnings


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1, float("-inf"))])
def test_solve_rejects_non_finite_coefficients(bad):
    # the same error parse_coefficient gives the command line
    with pytest.raises(ValueError, match="non-finite coefficient"):
        solve(Polynomial([1, bad, 1]))
    with pytest.raises(ValueError, match="non-finite coefficient"):
        solve(Trinomial(5, 1, bad, 1))


@pytest.mark.parametrize("tol", [1e-8, None])
def test_cross_check_reads_a_short_grim_report_partial(tol):
    p = Polynomial([-6, 11, -6, 1])  # (x - 1)(x - 2)(x - 3)
    report = RootReport([RootEntry(1 + 0j, 0.0), RootEntry(2 + 0j, 0.0)], "grim")
    assert cross_check(p, report, tol) == "partial"


def test_a_stalled_quadrinomial_series_is_dropped():
    # its one term, 1e4, is too far for the polish to reach a root near 1.9
    report = solve(Quadrinomial(7, 2, 5, 0.01, 100), "series", max_terms=1)
    assert report.roots == []
    assert report.warnings == [
        "branch 0: polish stalled at residual 1.000e+00",
        "partial results: some branches did not converge",
    ]


def test_branch_reports_aim_at_the_branches_asked_for():
    # branch 5 is branch 0 again, and the quadrinomial series aims at one root
    p = Polynomial([-1, -1, 0, 0, 0, 1])
    report = solve(p, "series", branches=[0, 5])
    assert (report.aimed, len(report.roots)) == (1, 1)
    assert cross_check(p, report, 1e-8) == "ok"
    w = Quadrinomial(7, 2, 0.1, 2, 0.5)
    report = solve(w, "series")
    assert (report.aimed, len(report.roots)) == (1, 1)
    assert cross_check(w.polynomial(), report, 1e-8) == "ok"


@pytest.mark.parametrize("eq, failed", [
    (Trinomial(3, 1, 1, 1), []),
    # a septic that is not monic: the route polishes on the input itself
    (Polynomial([-1, 1, 0.5, 0.3, 0, 0, 0, 2]), ["branch 0: maxiter"]),
])
def test_a_stalled_radical_polish_drops_the_branch(monkeypatch, eq, failed):
    # every radical shape goes through one polish, and a branch whose polish
    # did not converge is dropped with its residual, not kept
    real = pipeline.polish

    def stalled(*args, **kwargs):
        root, _, its, _ = real(*args, **kwargs)
        return root, 0.5, its, False

    monkeypatch.setattr(pipeline, "polish", stalled)
    report = solve(eq, "radical")
    n = eq.s if isinstance(eq, Trinomial) else eq.degree
    assert report.roots == []
    assert report.warnings == failed + [
        f"branch {k}: polish stalled at residual 5.000e-01" for k in range(len(failed), n)
    ] + ["partial results: some branches did not converge"]


_coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_nonzero = _coeff.filter(lambda c: abs(c) > 0.05)


@st.composite
def _auto_shapes(draw):
    """A polynomial of one of the shapes auto tells apart, and its kind."""
    kind = draw(st.sampled_from(["closed", "split", "trinomial", "quadrinomial", "general"]))
    if kind == "closed":
        n = draw(st.integers(1, 4))
        return kind, Polynomial(draw(st.lists(_coeff, min_size=n, max_size=n)) + [draw(_nonzero)])
    n = draw(st.sampled_from([6, 8, 10] if kind == "split" else [5, 7, 9, 11]))
    if kind in ("split", "general"):
        return kind, Polynomial(draw(st.lists(_coeff, min_size=n, max_size=n)) + [1])
    coeffs = [0j] * n + [1]
    coeffs[0] = draw(_nonzero)
    middle = [draw(st.integers(1, n - 1))] if kind == "trinomial" else [1, draw(st.integers(2, n - 2))]
    for i in middle:
        coeffs[i] = draw(_nonzero)
    return kind, Polynomial(coeffs)


@given(_auto_shapes())
@settings(max_examples=150, deadline=None)
def test_auto_gives_n_roots_or_a_status_other_than_ok(case):
    kind, p = case
    report = solve(p)
    if kind == "quadrinomial":
        assert report.method == "grim"
    assert len(report.roots) == p.degree or cross_check(p, report, 1e-8) != "ok"


@given(
    st.integers(2, 12).flatmap(lambda s: st.tuples(st.just(s), st.integers(1, s - 1))),
    st.floats(0.05, 1.2),  # the argument modulus
    st.floats(0.2, 5.0),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.sampled_from([2, 10, 400]),
)
@settings(max_examples=60, deadline=None)
def test_pfq_is_the_series_route_and_every_kept_root_is_polished(
    sb, rho, q_mod, q_arg, alpha_arg, max_terms
):
    # pfq runs the series route's attempt: the same roots, bit for bit, and
    # the same warnings but for the route word of a diverged branch. Every
    # per-branch route keeps a root only where its polish converged, at a
    # scaled residual of at most 1e-12
    s, b = sb
    alpha_mod = (rho * q_mod ** (s - b) / float(argument_modulus_constant(s, b))) ** (1 / s)
    t = Trinomial(s, b, cmath.rect(alpha_mod, alpha_arg), cmath.rect(q_mod, q_arg))
    series = solve(t, "series", max_terms=max_terms)
    pfq = solve(t, "pfq", max_terms=max_terms)
    assert [repr(e) for e in pfq.roots] == [repr(e) for e in series.roots]
    assert [w.replace(": pfq diverged", ": series diverged") for w in pfq.warnings] == series.warnings
    p = t.polynomial()
    for report in (series, pfq, solve(t, "radical")):
        for e in report.roots:
            assert e.residual <= 1e-12, (report.method, e)
            assert scaled_residual(p, e.root) == e.residual, (report.method, e)
