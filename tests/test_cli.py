import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from polysolve import (
    Polynomial,
    Trinomial,
    all_roots_oracle,
    cross_check,
    poly_from_roots,
    solve,
)
from polysolve.cli import canonical_json, main
from polysolve.poly import format_poly

X5M_ROOT = 1.1673039782614187  # bisection oracle for x^5 - x - 1 on [1, 2]


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestSolve:
    def test_trinomial_five_roots(self):
        code, out, err = run_cli(
            "solve", "--trinomial", "5", "1", "1", "1", "--json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["roots"]) == 5
        assert any(
            abs(complex(r["re"], r["im"]) - X5M_ROOT) <= 1e-9 for r in doc["roots"]
        )
        assert doc["status"] == "ok"

    def test_cubic_roots_of_unity(self):
        code, out, err = run_cli("solve", "--coeffs", "-1,0,0,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "closed-cubic"
        values = sorted(
            (round(r["re"], 6), round(r["im"], 6)) for r in doc["roots"]
        )
        assert values == [(-0.5, -0.866025), (-0.5, 0.866025), (1.0, 0.0)]

    def test_cubic_roots_twelve_decades_apart(self):
        # (x - 1e-12)(x - 1)(x - 1e12) with --no-oracle: nothing but the
        # closed form itself stands between the input and an "ok"
        code, out, err = run_cli(
            "solve", "--coeffs",
            "-1.0,1000000000001.000000000001,-1000000000001.000000000001,1.0",
            "--no-oracle", "--json",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["status"] == "ok"
        got = sorted((complex(r["re"], r["im"]) for r in doc["roots"]), key=abs)
        for z, want in zip(got, (1e-12, 1.0, 1e12)):
            assert abs(z - want) <= 1e-15 * want
        assert all(r["residual"] <= 1e-12 for r in doc["roots"])

    def test_grim_matches_oracle(self):
        code, out, err = run_cli(
            "solve", "--coeffs", "1,1,0,0,1", "--method", "grim", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        oracle = all_roots_oracle(Polynomial([1, 1, 0, 0, 1]))
        for r in doc["roots"]:
            z = complex(r["re"], r["im"])
            assert min(abs(z - e.root) for e in oracle.roots) <= 1e-8

    @pytest.mark.parametrize("oracle", [[], ["--no-oracle"]], ids=["oracle", "no-oracle"])
    def test_grim_shortfall_is_partial(self, oracle):
        # Wilkinson's degree-24 polynomial: GRIM settles on fewer than 24
        p = poly_from_roots(range(1, 25))
        code, out, _ = run_cli(
            "solve", f"--coeffs={format_poly(p)}", "--method", "grim",
            "--json", *oracle,
        )
        assert code == 2
        doc = json.loads(out)
        k = len(doc["roots"])
        assert k < 24
        assert doc["status"] == "partial"
        assert f"found {k} of 24 roots" in doc["warnings"]

    def test_auto_solves_a_quadrinomial_by_grim(self):
        # the Command line example of the README
        code, out, err = run_cli(
            "solve", "--quadrinomial", "7", "2", "0.1", "2", "0.5", "--json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["method"] == "grim"
        assert len(doc["roots"]) == 7
        assert doc["status"] == "ok"

    def test_method_dispatch_split(self):
        code, out, _ = run_cli("solve", "--coeffs", "-1,0,0,0,0,0,1", "--json")
        assert code == 0
        assert json.loads(out)["method"].startswith("split")

    def test_quadrinomial_series(self):
        code, out, _ = run_cli(
            "solve",
            "--quadrinomial", "7", "2", "0.1", "2", "0.5",
            "--method", "series",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "series-quadrinomial"
        assert doc["status"] == "ok"
        assert len(doc["roots"]) == 1
        assert doc["roots"][0]["residual"] <= 1e-10

    def test_oracle_method(self):
        code, out, _ = run_cli(
            "solve", "--coeffs", "-1,0,1", "--method", "oracle", "--json"
        )
        assert code == 0
        assert json.loads(out)["method"] == "durand-kerner"

    def test_adjacent_method(self):
        code, out, _ = run_cli(
            "solve", "--coeffs", "-1,1,4,1,0,0,0,1", "--method", "adjacent", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "adjacent-septic"
        assert len(doc["roots"]) == 1

    def test_pfq_method_on_trinomial(self):
        code, out, _ = run_cli(
            "solve", "--trinomial", "5", "2", "0.3", "1.1",
            "--method", "pfq", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "pfq-trinomial"
        assert doc["status"] == "ok"
        assert len(doc["roots"]) == 5

    def test_radical_method_on_trinomial(self):
        code, out, _ = run_cli(
            "solve", "--trinomial", "3", "1", "1", "1",
            "--method", "radical", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "radical-trinomial"
        # the real root of x^3 - x - 1 (the plastic number region)
        assert any(
            abs(complex(r["re"], r["im"]) - 1.3247179572447460) <= 1e-9
            for r in doc["roots"]
        )

    def test_usage_error_on_bad_method_shape(self):
        code, out, err = run_cli(
            "solve", "--coeffs", "1,1,1,1,1,1", "--method", "closed"
        )
        assert code == 1
        assert "error" in err

    def test_usage_error_split_odd_degree(self):
        code, out, err = run_cli(
            "solve", "--coeffs", "1,1,0,0,0,1", "--method", "split"
        )
        assert code == 1
        assert "error" in err

    def test_text_output_format(self):
        code, out, _ = run_cli("solve", "--coeffs", "-2,0,1")
        assert code == 0
        assert "method: closed-quadratic" in out
        assert "residual" in out
        assert "status: ok" in out

    def test_divergent_series_partial_exit(self):
        code, out, err = run_cli(
            "solve",
            "--trinomial", "7", "1", "-1", "0.5",
            "--method", "series",
            "--branches", "0",
            "--json",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "partial"

    def test_failed_radical_branch_is_partial(self):
        code, out, _ = run_cli(
            "solve", "--trinomial", "4", "1", "0.7076-0.7983i", "-0.8362-0.3527i",
            "--method", "radical", "--json",
        )
        assert code == 2
        doc = json.loads(out)
        assert len(doc["roots"]) == 3
        assert doc["status"] == "partial"
        assert doc["warnings"] == [
            "branch 2: maxiter",
            "partial results: some branches did not converge",
        ]

    def test_truncated_pfq_branch_is_kept_as_the_series_root(self):
        # branch 1 of x^7 - 1.5x + 1 truncates, and its polish converges: pfq
        # keeps it under the series route's rule, with the series' root
        docs = []
        for method in ("series", "pfq"):
            code, out, _ = run_cli(
                "solve", "--coeffs", "2,-3,0,0,0,0,0,2", "--method", method,
                "--branches", "1", "--json",
            )
            assert code == 0
            docs.append(json.loads(out))
        series_doc, pfq_doc = docs
        assert pfq_doc["method"] == "pfq-trinomial"
        assert pfq_doc["status"] == "ok" and pfq_doc["warnings"] == []
        assert len(pfq_doc["roots"]) == 1
        assert pfq_doc["roots"] == series_doc["roots"]

    @pytest.mark.parametrize("method", ["series", "pfq"])
    def test_stalled_polish_drops_the_branch(self, method):
        # two terms leave every branch near 3e37 to 1.5e44, where Newton
        # cannot reach the roots (moduli 31.6 and 1e-6) in 80 steps
        code, out, _ = run_cli(
            "solve", "--trinomial", "5", "1", "1e6", "1", "--method", method,
            "--max-terms", "2", "--no-oracle", "--json",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["roots"] == []
        assert doc["status"] == "partial"
        *stalls, last = doc["warnings"]
        assert len(stalls) == 5
        for k, warning in enumerate(stalls):
            assert warning.startswith(f"branch {k}: polish stalled at residual "), warning
        assert last == "partial results: some branches did not converge"

    def test_overflowed_pfq_branches_are_diverged(self):
        code, out, _ = run_cli(
            "solve", "--trinomial", "5", "1", "1e6", "1", "--method", "pfq", "--json"
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["roots"] == []
        assert doc["status"] == "partial"
        assert doc["warnings"] == [f"branch {k}: pfq diverged" for k in range(5)] + [
            "partial results: some branches did not converge"
        ]

    @pytest.mark.parametrize("s, b, alpha, q", [
        ("3", "1", "1e200", "1"), ("4", "1", "1e100", "1"), ("5", "2", "1e300", "1e-300"),
    ])
    def test_pfq_powers_past_the_float_range_are_diverged(self, s, b, alpha, q):
        # alpha^s, the q power of the argument, the class prefactors and
        # the q powers of the sum all overflow here
        code, out, err = run_cli(
            "solve", "--trinomial", s, b, alpha, q, "--method", "pfq", "--json"
        )
        assert code == 2, err
        doc = json.loads(out)
        assert doc["roots"] == []
        assert doc["status"] == "partial"
        assert doc["warnings"] == [f"branch {k}: pfq diverged" for k in range(int(s))] + [
            "partial results: some branches did not converge"
        ]

    def test_colliding_series_branches_are_partial(self):
        # with 10 terms a truncated branch polishes onto another branch's
        # root, and distinct_roots keeps 6 roots of 7
        code, out, _ = run_cli(
            "solve", "--trinomial", "7", "1", "1.6", "1", "--max-terms", "10", "--json"
        )
        assert code == 2
        doc = json.loads(out)
        assert len(doc["roots"]) == 6
        assert doc["status"] == "partial"
        assert doc["warnings"] == ["partial results: 7 branches gave 6 distinct roots"]
        # the same branches asked for by name collide the same way; branch
        # 13 is branch 6 again
        code, out, _ = run_cli(
            "solve", "--trinomial", "7", "1", "1.6", "1", "--max-terms", "10",
            "--branches", "0,1,2,3,4,5,6,13", "--json",
        )
        assert code == 2
        assert json.loads(out)["warnings"] == [
            "partial results: 7 branches gave 6 distinct roots"
        ]

    @pytest.mark.parametrize("method", ["series", "grim", "closed"])
    def test_empty_branch_list_is_a_usage_error(self, method):
        code, out, err = run_cli(
            "solve", "--trinomial", "3", "1", "0.5", "1", "--method", method,
            "--branches", ",", "--json",
        )
        assert (code, out) == (1, "")
        assert err == "error: branches must be nonempty\n"

    def test_grim_failure_is_an_error_line(self):
        # 1e300 + 1e-300 x^5: its default seed overflows, and its roots
        # (modulus 1e120) overflow when raised to the 5th
        for coeffs in ("1e200,0,1e-200", "1e300,0,0,0,0,1e-300"):
            code, out, err = run_cli("solve", "--coeffs", coeffs, "--method", "grim")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert "Traceback" not in err

    def test_closed_form_overflow_is_an_error_line(self):
        # the closed cubic and the quartic's resolvent overflow; GRIM, from
        # the Newton polygon, gives every root of both
        for args, methods in (
            (("3", "1", "1e200", "1"), ("auto", "closed")),
            (("4", "1", "1e100", "1"), ("auto", "closed", "split")),
        ):
            for method in methods:
                code, out, err = run_cli("solve", "--trinomial", *args, "--method", method)
                assert code == 2, (args, method)
                assert out == ""
                assert err.startswith("error: closed form overflowed")
            code, out, err = run_cli(
                "solve", "--trinomial", *args, "--method", "grim", "--json"
            )
            assert code == 0, err
            doc = json.loads(out)
            assert len(doc["roots"]) == int(args[0])
            assert doc["status"] == "ok"
        # the adjacent route seeds from the same closed cubic; at 1e150 the
        # cubic seed 1e50 is finite but its residual on the septic is not
        for coeffs, error in (
            ("-1e200,0,0,1,0,0,0,1", "error: closed form overflowed"),
            ("-1,1,1e200,1,0,0,0,1", "error: closed form overflowed"),
            ("-1e150,0,0,1,0,0,0,1", "error: septic residual at the seed"),
        ):
            code, out, err = run_cli(
                "solve", f"--coeffs={coeffs}", "--method", "adjacent", "--json"
            )
            assert code == 2, coeffs
            assert out == ""
            assert err.startswith(error)

    def test_grim_finds_the_small_root(self):
        # x^5 - 1e6 x - 1: the root near -1e-6 comes from the polygon
        code, out, err = run_cli(
            "solve", "--trinomial", "5", "1", "1e6", "1", "--method", "grim", "--json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["roots"]) == 5
        assert doc["status"] == "ok"
        assert min(abs(complex(r["re"], r["im"]) + 1e-6) for r in doc["roots"]) <= 1e-18

    def test_grim_large_seed_gives_roots(self):
        # Wilkinson's degree-20 polynomial: its default seed is about 7e18
        wilkinson = poly_from_roots(range(1, 21))
        coeffs = ",".join(repr(c.real) for c in wilkinson.coeffs)
        for method in ("grim", "auto"):
            code, out, err = run_cli("solve", "--coeffs", coeffs, "--method", method)
            assert code == 0, err
            assert out.startswith("method: grim")

    def test_non_finite_coefficients_are_usage_errors(self):
        for bad in ("nan", "-nan", "1e400", "1+nanj"):
            code, out, err = run_cli("solve", "--coeffs", f"1,{bad},1", "--json")
            assert code == 1, bad
            assert out == ""
            assert "non-finite coefficient" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8"])
    def test_bad_tolerance_is_a_usage_error(self, tol):
        # nan would read every answer as within tolerance, and so would inf
        code, out, err = run_cli(
            "solve", "--coeffs", "1,2,3", "--tolerance", tol, "--json"
        )
        assert code == 1
        assert out == ""
        assert "tolerance must be finite and >= 0" in err

    def test_zero_tolerance_is_accepted(self):
        code, out, err = run_cli("solve", "--coeffs", "1,2,3", "--tolerance", "0", "--json")
        assert code == 0, err
        assert json.loads(out)["status"] == "ok"

    def test_non_finite_roots_are_null_and_mismatch(self):
        def refuse(token):
            raise ValueError(f"bare {token} in JSON output")

        code, out, _ = run_cli("solve", "--coeffs", "1e200,0,1e-200", "--json")
        assert code == 0
        doc = json.loads(out, parse_constant=refuse)
        assert doc["status"] == "mismatch"
        assert any(r["re"] is None or r["im"] is None for r in doc["roots"])
        assert any("is not finite" in w for w in doc["warnings"])


@pytest.mark.parametrize("argv", [
    ("solve", "--trinomial", "5", "1", "1", "1"),
    ("solve", "--trinomial", "5", "1", "1", "1", "--plot", "basins"),
    ("pfq", "--upper", "1", "--z", "0.5"),
], ids=["solve", "basins", "pfq"])
def test_max_terms_below_one_is_a_usage_error(argv):
    # one error line and nothing on stdout, not even the basins header
    code, out, err = run_cli(*argv, "--max-terms", "0", "--json")
    assert (code, out, err) == (1, "", "error: max_terms must be an int >= 1\n")


class TestDeterminism:
    def test_identical_invocations_bit_identical(self):
        _, out1, _ = run_cli("solve", "--coeffs", "1,1,0,0,1", "--json")
        _, out2, _ = run_cli("solve", "--coeffs", "1,1,0,0,1", "--json")
        assert out1 == out2

    def test_json_round_trip_byte_identical(self):
        _, out, _ = run_cli("solve", "--trinomial", "5", "1", "1", "1", "--json")
        doc = json.loads(out)
        assert canonical_json(doc) + "\n" == out

    def test_canonical_float_formatting(self):
        text = canonical_json({"x": 1 / 3, "y": 1.0, "z": 12})
        assert text == '{"x":0.33333333333333331,"y":1,"z":12}'
        assert json.loads(text)["x"] == 1 / 3

    def test_non_finite_floats_serialize_as_null(self):
        text = canonical_json([math.nan, math.inf, -math.inf, 0.5])
        assert text == "[null,null,null,0.5]"

    @pytest.mark.parametrize(
        "text",
        ['"', "\\", "\n\r\t\b\f", "".join(map(chr, range(0x20))), "\x7f", "é",
         "\U0001d11e", "a\"b\\c\u2028\ud800\U0010ffff~ "],
        ids=["quote", "backslash", "short-escapes", "controls", "del", "e-acute",
             "astral", "mixed"],
    )
    def test_strings_encode_as_json_dumps(self, text):
        # canonical_json escapes strings itself, so that the CLI loads no json
        assert canonical_json(text) == json.dumps(text)
        assert canonical_json({text: [text]}) == f"{{{json.dumps(text)}:[{json.dumps(text)}]}}"

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_any_string_encodes_as_json_dumps(self, text):
        assert canonical_json(text) == json.dumps(text)
        assert canonical_json({text: text}) == f"{{{json.dumps(text)}:{json.dumps(text)}}}"

    def test_report_bytes_unchanged(self):
        # the output of the json.dumps string encoder, recorded before
        # canonical_json wrote its own
        code, out, _ = run_cli("solve", "--coeffs", "1e200,0,1e-200", "--json")
        assert code == 0
        assert out == (
            '{"method":"closed-quadratic","roots":[{"re":-0,"im":null,"residual":null,'
            '"branch":0},{"re":null,"im":null,"residual":null,"branch":1}],'
            '"warnings":["root (-0-infj) is not finite"],"status":"mismatch"}\n'
        )


class TestRDTable:
    def test_reference_rows(self):
        code, out, _ = run_cli("rd-table", "5", "6", "7", "9", "25", "121", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["n"], r["rd_max"], r["r"]) for r in rows] == [
            (5, 1, 4),
            (6, 2, 4),
            (7, 2, 5),
            (9, 4, 5),
            (25, 19, 6),
            (121, 114, 7),
        ]

    def test_rule_row(self):
        code, out, _ = run_cli("rd-table", "8", "--json")
        row = json.loads(out)["rows"][0]
        assert row["r"] == 5  # monotone between the n=7 and n=9 reference rows
        assert row["rd_max"] == 3

    def test_usage_error_small_n(self):
        code, out, err = run_cli("rd-table", "4")
        assert code == 1
        assert "error" in err

    def test_text_table(self):
        code, out, _ = run_cli("rd-table", "5", "6")
        assert "RD(n)max" in out


class TestPFQ:
    def test_z_zero(self):
        code, out, _ = run_cli("pfq", "--upper", "1,2", "--lower", "3", "--z", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["re"] == 1.0
        assert doc["status"] == "converged"

    def test_exp(self):
        code, out, _ = run_cli("pfq", "--z", "1", "--json")
        doc = json.loads(out)
        assert abs(doc["value"]["re"] - math.e) <= 1e-12
        assert doc["terms_used"] > 1

    def test_regularized_past_the_gamma_overflow(self):
        code, out, err = run_cli(
            "pfq", "--upper", "0.5,1.5", "--lower", "2.5", "--z", "0.9",
            "--regularized", "--json",
        )
        assert code == 0, err
        assert json.loads(out)["status"] == "converged"

    def test_long_regularized_sum_is_truncated(self):
        code, out, err = run_cli(
            "pfq", "--upper", "1", "--z", "0.99", "--regularized", "--json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["status"] == "truncated"
        assert doc["terms_used"] == 400

    def test_divergence_exit_code(self):
        code, out, _ = run_cli(
            "pfq", "--upper", "1,1", "--lower", "2", "--z", "1.5", "--json"
        )
        assert code == 2
        assert json.loads(out)["status"] == "diverged"

    def test_pole_usage_error(self):
        code, out, err = run_cli("pfq", "--upper", "1", "--lower", "-2", "--z", "0.1")
        assert code == 1


class TestResultantAndTschirnhaus:
    def test_resultant_product_formula(self):
        code, out, _ = run_cli("resultant", "-1,1", "1,1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["re"] - 2) <= 1e-12

    def test_resultant_common_root(self):
        code, out, _ = run_cli("resultant", "-1,1", "-1,1", "--json")
        assert abs(json.loads(out)["re"]) <= 1e-12

    def test_tschirnhaus_principal(self):
        code, out, _ = run_cli("tschirnhaus", "-1,0,0,0,0,1", "--json")
        assert code == 0
        doc = json.loads(out)
        w4 = complex(doc["coeffs"][4]["re"], doc["coeffs"][4]["im"])
        w3 = complex(doc["coeffs"][3]["re"], doc["coeffs"][3]["im"])
        assert abs(w4) <= 1e-10
        assert abs(w3) <= 1e-10

    def test_tschirnhaus_degenerate_is_usage_error(self):
        code, out, err = run_cli("tschirnhaus", "-1,-1,0,0,0,1")
        assert code == 1


class TestBasins:
    def test_csv_grid(self):
        code, out, _ = run_cli(
            "solve",
            "--trinomial", "5", "1", "0.5", "1",
            "--plot", "basins",
            "--grid", "-1:1:3,-1:1:3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param1,param2,method,status,residual"
        assert len(lines) == 1 + 9
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert fields[3] in {"ok", "partial"}

    def test_grim_failure_is_a_partial_row(self):
        # 1e300 + 1e-300 x^5: grim_solve raises GrimError, and the row says so
        code, out, _ = run_cli(
            "solve", "--coeffs", "1e300,0,0,0,0,1e-300",
            "--plot", "basins", "--grid", "1e300:1e300:1,0:0:1",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split(",")[2:] for row in rows] == [["grim", "partial", "nan"]]

    @pytest.mark.parametrize("argv, probe, method, branches, words", [
        (("--trinomial", "5", "1", "0.5", "1"),
         lambda c: Trinomial(5, 1, c, 1), "series", [0], {"ok", "partial"}),
        (("--coeffs", "1,1,1,1,1,1"),
         lambda c: Polynomial([c, 1, 1, 1, 1, 1]), "grim", None, {"ok"}),
    ], ids=["trinomial", "grim"])
    def test_rows_read_what_solve_reads(self, argv, probe, method, branches, words):
        # each row is solve(...) plus cross_check(..., None) at its point
        code, out, _ = run_cli(
            "solve", *argv, "--plot", "basins", "--grid", "-3:3:7,-3:3:7"
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 49
        seen = set()
        for row in rows:
            re, im, got_method, status, residual = row.split(",")
            eq = probe(complex(float(re), float(im)))
            report = solve(eq, method, branches)
            p = eq.polynomial() if isinstance(eq, Trinomial) else eq
            expected = max((e.residual for e in report.roots), default=math.nan)
            assert got_method == method
            assert status == cross_check(p, report, None)
            assert residual == f"{expected:.17g}"
            seen.add(status)
        assert seen == words

    @pytest.mark.parametrize("grid", [
        "0:1:0,0:1:1", "0:1:1,0:1:0", "0:1:-2,0:1:3",
        "nan:1:2,0:1:1", "0:inf:2,0:1:1", "0:1:2,-inf:1:1",  # a non-finite bound too
    ])
    def test_grid_count_below_one_is_a_usage_error(self, grid):
        code, out, err = run_cli(
            "solve", "--coeffs", "1,2,3", "--plot", "basins", "--grid", grid
        )
        assert code == 1
        assert out == ""
        assert "bad grid" in err
