import io
import json
import math
import random

from polysolve import Polynomial, all_roots_oracle, poly_from_roots
from polysolve.cli import canonical_json, main
from polysolve.poly import format_poly

from conftest import separated_roots_poly

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

    def test_grim_shortfall_is_mismatch(self):
        # instance 2 of the criterion-7 stream has degree 9; one branch
        # gives at most 8 candidate points, so at most 8 roots
        rng = random.Random(0x5EED07)
        for _ in range(3):
            p, _ = separated_roots_poly(rng, rng.randint(2, 10))
        code, out, _ = run_cli(
            "solve", f"--coeffs={format_poly(p)}", "--method", "grim",
            "--branches", "0", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["roots"]) == 8
        assert doc["status"] == "mismatch"
        assert "found 8 of 9 roots" in doc["warnings"]

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

    def test_failed_pfq_branch_is_partial(self):
        code, out, _ = run_cli(
            "solve", "--coeffs", "2,-3,0,0,0,0,0,2", "--method", "pfq",
            "--branches", "1", "--json",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["roots"] == []
        assert doc["status"] == "partial"
        assert doc["warnings"] == [
            "branch 1: pfq truncated",
            "partial results: some branches did not converge",
        ]

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

    def test_grim_failure_is_an_error_line(self):
        # x^5 + 1e70: its default seed 5e69 overflows when raised to the 5th
        for coeffs in ("1e200,0,1e-200", "1e70,0,0,0,0,1"):
            code, out, err = run_cli("solve", "--coeffs", coeffs, "--method", "grim")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
            assert "Traceback" not in err

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

    def test_non_finite_roots_are_null_and_mismatch(self):
        def refuse(token):
            raise ValueError(f"bare {token} in JSON output")

        code, out, _ = run_cli("solve", "--coeffs", "1e200,0,1e-200", "--json")
        assert code == 0
        doc = json.loads(out, parse_constant=refuse)
        assert doc["status"] == "mismatch"
        assert any(r["re"] is None or r["im"] is None for r in doc["roots"])
        assert any("is not finite" in w for w in doc["warnings"])


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
            assert fields[3] in {"converged", "diverged", "truncated", "partial"}
