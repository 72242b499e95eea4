"""Import cost and the lazy package API.

The guard tests run fresh interpreters without a bytecode cache, as a
``polysolve solve`` call does, and read which polysolve modules each step
loaded: the CLI loads none of the route modules, nor numerics, and a solve
loads only the route it runs. They also read which of the standard
library's dataclasses, inspect, json, fractions and decimal were loaded:
no step loads the first three, and only the pFq form's exact rationals
load the last two.
"""

from __future__ import annotations

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import polysolve

SRC = Path(__file__).resolve().parents[1] / "src"
ROUTES = ("algebra", "closedform", "grim", "radicals", "series")

# every public name of the package
PUBLIC = (
    "ConvergenceError", "DegenerateError", "DegreeError", "DivergenceError",
    "GrimError", "PFQParams", "PFQResult", "PFQRootForm", "PFQRootGroup",
    "PoleError", "Polynomial", "Quadrinomial", "RDBoundRow", "RootEntry",
    "RootReport", "SeriesDiagnostics", "SquareDifferenceSplit", "Trinomial",
    "adjacent_septic_root", "all_roots_oracle", "argument_modulus_constant",
    "brauer_rd", "bring_jerrard_quintic",
    "cross_check", "distinct_roots", "eval_poly", "eval_poly_and_deriv",
    "gamma_real", "grim_coverage", "grim_solve", "match_roots",
    "newton_polish", "newton_polygon", "parse_poly", "pfq_eval", "pochhammer",
    "polish", "poly_from_roots", "principal_pow", "quadrinomial_radical_root",
    "quadrinomial_series_root", "recip_gamma_real", "scaled_residual",
    "septic_radical_root", "solve", "solve_by_split", "solve_closed",
    "solve_cubic", "solve_quadratic", "solve_quartic",
    "square_difference_split", "sylvester_resultant", "trinomial_pfq_root",
    "trinomial_radical_root", "trinomial_series_root", "tschirnhaus_quadratic",
)

STDLIB = {"dataclasses", "inspect", "json", "fractions", "decimal"}

# prints the polysolve modules, and those of STDLIB, loaded after the
# statement given as argv[1], then after main(argv[2:]); it takes argv as
# it is and prints a Python literal, so that it loads none of STDLIB itself
PROBE = f"""
import io, sys
exec(sys.argv[1])

def loaded():
    names = [m.split(".")[1] for m in sys.modules if m.startswith("polysolve.")]
    return sorted(names + [m for m in {sorted(STDLIB)!r} if m in sys.modules])

before = loaded()
code = None
if len(sys.argv) > 2:
    import polysolve.cli
    code = polysolve.cli.main(sys.argv[2:], out=io.StringIO(), err=io.StringIO())
print([before, loaded(), code])
"""


def _fresh_run(
    argv: list[str], first: str = "import polysolve.cli"
) -> tuple[set[str], set[str], int | None]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, first, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    before, after, code = ast.literal_eval(proc.stdout)
    return set(before), set(after), code


class TestImportGuard:
    def test_cli_import_loads_no_route(self):
        # nor numerics, nor any of STDLIB
        before, _, _ = _fresh_run(["rd-table", "5"])
        assert before == {"cli", "pipeline", "poly"}

    def test_closed_solve_loads_only_closedform(self):
        _, after, code = _fresh_run(["solve", "--coeffs=1,2,3", "--json"])
        assert code == 0
        assert after == {"cli", "closedform", "pipeline", "poly"}

    def test_closed_cubic_loads_no_numerics(self):
        # the cubic takes its principal cube root from poly
        _, after, code = _fresh_run(["solve", "--coeffs=-1,0,0,1", "--json"])
        assert code == 0
        assert after == {"cli", "closedform", "pipeline", "poly"}

    def test_split_solve_loads_only_closedform_and_grim(self):
        # even degree 6: auto splits it; solve_by_split imports grim too
        _, after, code = _fresh_run(["solve", "--coeffs=1,0,2,0,3,0,1", "--json"])
        assert code == 0
        assert after & set(ROUTES) == {"closedform", "grim"}
        assert "numerics" not in after
        assert not after & STDLIB

    def test_grim_solve_loads_only_grim(self):
        # degree 5 with two middle terms and no trinomial shape: auto runs GRIM
        _, after, code = _fresh_run(["solve", "--coeffs=1,1,1,0,0,1", "--json"])
        assert code == 0
        assert "grim" in after
        assert not after & {"algebra", "closedform", "numerics", "radicals", "series"}
        assert not after & STDLIB

    def test_series_solve_loads_no_other_route(self):
        # the series sums by numerics.sum_series, in floats: no exact rationals
        _, after, code = _fresh_run(["solve", "--trinomial", "5", "1", "0.5", "1", "--json"])
        assert code == 0
        assert {"numerics", "series"} <= after
        assert not after & {"algebra", "closedform", "grim", "radicals"}
        assert not after & STDLIB

    def test_pfq_solve_loads_what_a_series_solve_loads(self):
        # the pfq route runs the series route's class sums: it builds no
        # pFq form, so it needs no exact rationals either
        argv = ["solve", "--trinomial", "5", "1", "0.5", "1", "--json"]
        _, series_after, series_code = _fresh_run(argv)
        _, pfq_after, pfq_code = _fresh_run([*argv, "--method", "pfq"])
        assert series_code == pfq_code == 0
        assert pfq_after == series_after
        assert not pfq_after & {"fractions", "decimal"}

    def test_pfq_command_loads_numerics(self):
        _, after, code = _fresh_run(["pfq", "--upper", "1", "--lower", "2", "--z", "0.5"])
        assert code == 0
        assert after == {"cli", "numerics", "pipeline", "poly"}

    @pytest.mark.parametrize(
        "argv", [["rd-table", "5"], ["resultant", "-1,1", "1,1"], ["tschirnhaus", "1,2,3,0,0,1"]]
    )
    def test_algebra_commands_load_only_algebra(self, argv):
        _, after, code = _fresh_run(argv)
        assert code == 0
        assert after & set(ROUTES) == {"algebra"}


# names that moved from numerics to poly, so that a CLI solve outside the
# series routes never loads numerics
MOVED = ("DivergenceError", "principal_pow")
CLONES = (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy)


class TestMovedNames:
    @pytest.mark.parametrize("name", MOVED)
    def test_package_name_is_the_poly_one(self, name):
        from polysolve import poly

        assert polysolve._HOME[name] == "poly"
        assert getattr(polysolve, name) is getattr(poly, name)

    def test_numerics_keeps_only_the_name_it_reads(self):
        from polysolve import numerics, poly

        assert numerics.MAX_TERMS is poly.MAX_TERMS  # pfq_eval's default
        assert not hasattr(numerics, "DivergenceError")
        assert not hasattr(numerics, "principal_pow")

    @pytest.mark.parametrize("clone", CLONES, ids=["pickle", "copy", "deepcopy"])
    def test_divergence_error_round_trips(self, clone):
        exc = polysolve.DivergenceError("series terms grow", 1.5 - 2j)
        got = clone(exc)
        assert type(got) is polysolve.poly.DivergenceError
        assert got.args == ("series terms grow",) and got.partial == 1.5 - 2j
        assert polysolve.DivergenceError("no partial").partial is None


class TestLazyApi:
    def test_all_lists_the_public_names(self):
        assert sorted(polysolve.__all__) == sorted(PUBLIC)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_home_module_attribute(self, name):
        home = importlib.import_module(f"polysolve.{polysolve._HOME[name]}")
        assert getattr(polysolve, name) is getattr(home, name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from polysolve import *", namespace)
        for name in PUBLIC:
            assert namespace[name] is getattr(polysolve, name)

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(polysolve))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            polysolve.no_such_name
        with pytest.raises(ImportError):
            exec("from polysolve import no_such_name", {})

    def test_reexports_are_the_same_objects(self):
        from polysolve import grim, poly, series

        assert series.Trinomial is poly.Trinomial
        assert series.Quadrinomial is poly.Quadrinomial
        assert grim.GrimError is poly.GrimError
