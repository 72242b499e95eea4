"""Import cost and the lazy package API.

The guard tests run fresh interpreters without a bytecode cache, as a
``polysolve solve`` call does, and read which polysolve modules each step
loaded: the CLI loads none of the route modules, and a solve loads only
the route it runs. They also read whether the standard library's
dataclasses and inspect were loaded: no step loads either.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polysolve

SRC = Path(__file__).resolve().parents[1] / "src"
ROUTES = ("algebra", "closedform", "grim", "radicals", "series")

# every name the package has exported since before it became lazy
PUBLIC = (
    "ConvergenceError", "DegenerateError", "DegreeError", "DivergenceError",
    "GrimConfig", "GrimError", "PFQParams", "PFQResult", "PFQRootForm",
    "PFQRootGroup", "PoleError", "Polynomial", "Quadrinomial", "RDBoundRow",
    "RadicalIterConfig", "RootEntry", "RootReport", "SeriesConfig",
    "SeriesDiagnostics", "SquareDifferenceSplit", "Trinomial",
    "adjacent_septic_root", "all_roots_oracle", "argument_modulus_constant",
    "brauer_rd", "bring_jerrard_quintic", "cauchy_bound", "cross_check",
    "distinct_roots", "eval_poly", "eval_poly_and_deriv", "gamma_real",
    "general_poly_series_root", "grim_coverage", "grim_solve", "match_roots",
    "newton_polish", "newton_polygon", "parse_poly", "pfq_eval", "pochhammer",
    "polish", "poly_from_roots", "principal_pow", "quadrinomial_radical_root",
    "quadrinomial_series_root", "recip_gamma_real", "reciprocal_series_root",
    "scaled_residual", "septic_radical_root", "sextic_radical_residual",
    "sextic_radical_root", "solve", "solve_by_split", "solve_closed",
    "solve_cubic", "solve_quadratic", "solve_quartic", "square_difference_split",
    "sylvester_resultant", "trinomial_pfq_root", "trinomial_radical_root",
    "trinomial_series_root", "tschirnhaus_quadratic",
)

STDLIB = {"dataclasses", "inspect"}

# prints the polysolve modules, and those of STDLIB, loaded after the
# import, then after main(argv)
PROBE = """
import io, json, sys
import polysolve.cli

def loaded():
    names = [m.split(".")[1] for m in sys.modules if m.startswith("polysolve.")]
    return sorted(names + [m for m in ("dataclasses", "inspect") if m in sys.modules])

before = loaded()
code = polysolve.cli.main(json.loads(sys.argv[1]), out=io.StringIO(), err=io.StringIO())
print(json.dumps([before, loaded(), code]))
"""


def _fresh_run(argv: list[str]) -> tuple[set[str], set[str], int]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True,
    )
    before, after, code = json.loads(proc.stdout)
    return set(before), set(after), code


class TestImportGuard:
    def test_cli_import_loads_no_route(self):
        # and neither dataclasses nor inspect
        before, _, _ = _fresh_run(["rd-table", "5"])
        assert before == {"cli", "numerics", "pipeline", "poly"}

    def test_closed_solve_loads_only_closedform(self):
        _, after, code = _fresh_run(["solve", "--coeffs=1,2,3", "--json"])
        assert code == 0
        assert "closedform" in after
        assert not after & {"algebra", "grim", "radicals", "series"}
        assert not after & STDLIB

    def test_split_solve_loads_only_closedform_and_grim(self):
        # even degree 6: auto splits it; solve_by_split imports grim too
        _, after, code = _fresh_run(["solve", "--coeffs=1,0,2,0,3,0,1", "--json"])
        assert code == 0
        assert after & set(ROUTES) == {"closedform", "grim"}
        assert not after & STDLIB

    def test_grim_solve_loads_only_grim(self):
        # degree 5 with two middle terms and no trinomial shape: auto runs GRIM
        _, after, code = _fresh_run(["solve", "--coeffs=1,1,1,0,0,1", "--json"])
        assert code == 0
        assert "grim" in after
        assert not after & {"algebra", "closedform", "radicals", "series"}
        assert not after & STDLIB

    def test_series_solve_loads_no_other_route(self):
        _, after, code = _fresh_run(["solve", "--trinomial", "5", "1", "0.5", "1", "--json"])
        assert code == 0
        assert "series" in after
        assert not after & {"algebra", "closedform", "grim", "radicals"}
        assert not after & STDLIB

    @pytest.mark.parametrize(
        "argv", [["rd-table", "5"], ["resultant", "-1,1", "1,1"], ["tschirnhaus", "1,2,3,0,0,1"]]
    )
    def test_algebra_commands_load_only_algebra(self, argv):
        _, after, code = _fresh_run(argv)
        assert code == 0
        assert after & set(ROUTES) == {"algebra"}


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
