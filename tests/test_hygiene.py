"""Static hygiene of the package, read with the stdlib ast module: no
module in src/polysolve keeps an unused import (at the top level, under
`if TYPE_CHECKING:` or inside a function), or a private top-level
function or class that nothing in the package references, or imports
dataclasses; every name in the package's lazy name table is
defined at the top level of the module the table names for it; only
the cross-check and the coverage report reach the all-roots oracle; no
route drops the converged flag of a polish outside two named sites; and
every functools memo has a finite bound."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polysolve"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Names read in tree: bare names, attribute names and names imported
    from another module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _names_read(tree: ast.AST) -> set[str]:
    """Bare names read in tree, annotations included: under
    `from __future__ import annotations` they still parse to names."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _own_imports(scope: ast.AST) -> list[str]:
    """Names bound by the imports of scope itself, nested blocks such as
    `if TYPE_CHECKING:` included, and not by those of the functions it
    defines; `from __future__ import ...` binds nothing."""
    bound: list[str] = []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        stack.extend(ast.iter_child_nodes(node))
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    tree = _parse(path)
    read = _names_read(tree)
    unused = [name for name in _own_imports(tree) if name not in read]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_function_level_import(path):
    # a function's own imports must be read inside that function
    unused = [
        f"{node.name}:{name}"
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in _own_imports(node)
        if name not in _names_read(node)
    ]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # the result and config types are plain slotted classes (poly._Record)
    imported = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "dataclasses" not in imported


def test_no_unreferenced_private_definition():
    trees = {path.name: _parse(path) for path in MODULES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = [
        f"{name}:{stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and stmt.name not in referenced
    ]
    assert not dead, f"private definitions nothing references: {dead}"


def test_oracle_roots_stay_out_of_route_results():
    # poly defines the oracle, pipeline runs it as the cross-check and the
    # "oracle" method, and grim.grim_coverage compares against it; anywhere
    # else its roots could end up in a route's report
    offenders = []
    for path in MODULES:
        if path.name in ("poly.py", "pipeline.py"):
            continue
        for stmt in _parse(path).body:
            if path.name == "grim.py" and (
                isinstance(stmt, ast.ImportFrom)
                or getattr(stmt, "name", None) == "grim_coverage"
            ):
                continue
            if "all_roots_oracle" in _references(stmt):
                offenders.append(f"{path.name}:{getattr(stmt, 'name', stmt.lineno)}")
    assert not offenders, f"all_roots_oracle referenced outside the cross-check: {offenders}"


def _top_level_definitions(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def test_lazy_name_table_matches_definitions():
    init = _parse(PACKAGE / "__init__.py")
    (table,) = [
        stmt.value
        for stmt in init.body
        if isinstance(stmt, ast.Assign)
        and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["_HOMES"]
    ]
    homes = ast.literal_eval(table)
    missing = [
        f"{module}.{name}"
        for module, names in homes.items()
        for name in names
        if name not in _top_level_definitions(_parse(PACKAGE / f"{module}.py"))
    ]
    assert not missing, f"names the table sends to a module that does not define them: {missing}"
    every = [name for names in homes.values() for name in names]
    assert len(every) == len(set(every)), "a name is listed under two modules"


def _series_engines(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The series engines of a module, and those that do not reach
    sum_series. An engine is a top-level function that gives a verdict (it
    builds SeriesDiagnostics or raises DivergenceError). A function or
    method reaches sum_series when it reads that name, or the name of a
    top-level function or class method of the module that reaches it (a
    call, or an attribute such as shared.branch_sum)."""
    bodies: dict[str, set[str]] = {}
    for stmt in tree.body:
        defs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for node in defs:
            if isinstance(node, ast.FunctionDef):
                bodies.setdefault(node.name, set()).update(_references(node))
    reaching = {name for name, refs in bodies.items() if "sum_series" in refs}
    while True:
        more = {name for name, refs in bodies.items() if refs & reaching} - reaching
        if not more:
            break
        reaching |= more
    engines = [
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        and {"SeriesDiagnostics", "DivergenceError"} & _references(stmt)
    ]
    return engines, sorted(set(engines) - reaching)


def test_every_series_engine_sums_by_sum_series():
    # a series engine gives a verdict, and the one stopping rule must be
    # what reached it: called by the engine itself, or by the series
    # helpers and methods that the engine calls
    engines, own_loop = _series_engines(_parse(PACKAGE / "series.py"))
    assert {
        "trinomial_series_root",
        "quadrinomial_series_root",
        "adjacent_septic_root",
    } <= set(engines)
    assert not own_loop, f"series engines that do not sum by sum_series: {own_loop}"


# two engines: one reaches sum_series through a helper and two methods, the
# other sums by a loop of its own, behind a method of the same class
_TOY_ENGINES = """
class _Parts:
    def total(self, terms):
        return self.stopped(terms)

    def stopped(self, terms):
        return sum_series(0j, iter(terms), 10)[0]

    def own(self, terms):
        acc = 0j
        for term in terms:
            acc += term
        return acc


def _helper(terms):
    return _Parts().total(terms)


def engine_through_helpers(terms):
    return SeriesDiagnostics(_helper(terms))


def engine_with_its_own_loop(terms):
    value = _Parts().own(terms)
    if value != value:
        raise DivergenceError("nan")
    return SeriesDiagnostics(value)
"""


def test_the_engine_scan_follows_helpers_and_catches_an_own_loop():
    engines, own_loop = _series_engines(ast.parse(_TOY_ENGINES))
    assert engines == ["engine_through_helpers", "engine_with_its_own_loop"]
    assert own_loop == ["engine_with_its_own_loop"]


def _flag_discards(tree: ast.Module) -> list[str]:
    """The functions that drop the converged flag of a polish call, one
    entry per call, sorted. A call keeps the flag when it is returned whole,
    or unpacked into a tuple whose last name (not _) the function reads."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != "polish":
            continue
        holder = func = parents[call]
        while not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            func = parents[func]
        if isinstance(holder, ast.Return):
            continue
        if isinstance(holder, ast.Assign) and isinstance(holder.targets[-1], ast.Tuple):
            flag = holder.targets[-1].elts[-1]
            read = {
                node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            if isinstance(flag, ast.Name) and flag.id != "_" and flag.id in read:
                continue
        found.append(getattr(func, "name", "<module>"))
    return sorted(found)


def test_no_route_discards_the_polish_flag():
    # a polish that stalled must reach a warning or a dropped branch, never
    # pass its best iterate off as a root. Two sites drop the flag:
    # - closedform._roots_report: the closed forms' short cleanup, whose
    #   stalls are still open (CHANGES.md);
    # - adjacent_septic_root: the polish of the cubic's seed, a start for
    #   the series whose final polish reports its stall
    discards = [
        f"{path.name}:{name}" for path in MODULES for name in _flag_discards(_parse(path))
    ]
    assert discards == ["closedform.py:_roots_report", "series.py:adjacent_septic_root"]


# one function keeps the flag of each of its polish calls; the others drop
# it by _, by an index, by a name never read, or by a bare call
_TOY_POLISHES = """
def keeps(p, x):
    root, res, its, converged = polish(p, x)
    if not converged:
        return None
    return poly.polish(p, root)


def underscore(p, x):
    root, res, its, _ = polish(p, x)
    return root


def indexed(p, x):
    return polish(p, x)[0]


def unread(p, x):
    root, res, its, converged = polish(p, x)
    return root


def bare(p, x):
    polish(p, x)
    return x
"""


def test_the_flag_scan_catches_each_way_of_dropping_it():
    assert _flag_discards(ast.parse(_TOY_POLISHES)) == ["bare", "indexed", "underscore", "unread"]


def test_every_lru_cache_is_bounded():
    # a memo without a bound grows with the traffic; functools.cache is
    # lru_cache(maxsize=None), and a bare @lru_cache hides its bound
    memos = {}
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                target = call.func if call else dec
                name = getattr(target, "attr", getattr(target, "id", None))
                if name not in ("lru_cache", "cache"):
                    continue
                size = None
                if call is not None and name == "lru_cache":
                    given = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
                    size = ast.literal_eval(given[0]) if given else None
                memos[f"{path.name}:{node.name}"] = size
    assert memos, "no lru_cache found: the scan has lost them"
    unbounded = [name for name, size in memos.items() if not (isinstance(size, int) and size > 0)]
    assert not unbounded, f"memos without a finite maxsize: {unbounded}"
