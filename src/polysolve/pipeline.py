"""One solve pipeline for the library and the command line: shape
recognition, the method table with its ``auto`` rule, and the oracle
cross-check.

The series, pfq and radical routes keep a branch by one rule: a branch
whose engine diverged or ran out of steps is dropped with a warning; else
it is polished at 1e-12 in 80 steps, and kept only if that converged.

Each route imports the module it runs (closedform, grim, radicals, series)
inside the route, so a solve compiles and imports only its own route. The
import reads the module attribute at call time: a wrapper installed on,
say, ``polysolve.grim.grim_solve`` sees every call, but only once that
module is loaded, so a tracer that wraps what is in ``sys.modules`` must
import the route modules before it installs.
"""

from __future__ import annotations

import cmath

from .poly import (
    MAX_TERMS,
    ConvergenceError,
    DivergenceError,
    Polynomial,
    Quadrinomial,
    RootEntry,
    RootReport,
    Trinomial,
    _Record,
    _require_count,
    all_roots_oracle,
    distinct_roots,
    format_coefficient,
    match_roots,
    polish,
)


class Shape(_Record, frozen=True):
    """What the routes need to know about an equation.

    tri is x^s - alpha x^b - q (q != 0); quad is x^s + c x^r + alpha x - b
    (2 <= r <= s-2); septic holds (c3, c2, c1, c0) of a monic degree-7
    polynomial without x^4..x^6 terms.
    """

    __slots__ = ("poly", "tri", "quad", "septic")

    def __init__(
        self,
        poly: Polynomial,
        tri: Trinomial | None = None,
        quad: Quadrinomial | None = None,
        septic: tuple[complex, complex, complex, complex] | None = None,
    ):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "tri", tri)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "septic", septic)


def shape_of(eq: Polynomial | Trinomial | Quadrinomial) -> Shape:
    """Recognize the shape of a polynomial; a Trinomial or Quadrinomial is
    taken as given, even when one of its coefficients is zero."""
    if isinstance(eq, (Trinomial, Quadrinomial)):
        found = shape_of(eq.polynomial())
        if isinstance(eq, Trinomial):
            return Shape(found.poly, eq, None, found.septic)
        return Shape(found.poly, None, eq, found.septic)
    s = eq.degree
    if s < 1:
        raise ValueError("constant polynomial has no roots to find")
    c = eq.monic().coeffs
    middle = [i for i in range(1, s) if c[i] != 0]
    tri = quad = septic = None
    if len(middle) == 1 and c[0] != 0:
        b = middle[0]
        tri = Trinomial(s, b, -c[b], -c[0])
    if len(middle) == 2 and middle[0] == 1 and 2 <= middle[1] <= s - 2:
        r = middle[1]
        quad = Quadrinomial(s, r, c[r], c[1], -c[0])
    if s == 7 and not any(c[4:7]):
        septic = (c[3], c[2], c[1], c[0])
    return Shape(eq, tri, quad, septic)


def _auto(shape: Shape) -> str:
    n = shape.poly.degree
    if n <= 4:
        return "closed"
    if n % 2 == 0 and n <= 10:
        return "split"
    if shape.tri is not None:
        return "series"
    return "grim"


def _polished(target: Polynomial, x: complex, k: int) -> RootEntry | str:
    """x polished on target at 1e-12 in 80 steps: branch k's entry, or the
    warning that drops the branch when the polish stalled."""
    root, res, its, converged = polish(target, x, tol=1e-12, max_iter=80)
    if not converged:
        return f"branch {k}: polish stalled at residual {res:.3e}"
    return RootEntry(root, res, branch=k, iterations=its)


def _branch_report(method: str, branches: list[int] | None, n: int, attempt) -> RootReport:
    """Run attempt(k) for each branch k (all n by default): it returns a
    RootEntry, or the warning text of a branch that failed. The roots go
    through poly.distinct_roots, and the report aims at one root per
    distinct branch mod n; the warnings say why fewer came back."""
    ks = branches if branches is not None else range(n)
    entries: list[RootEntry] = []
    warnings: list[str] = []
    for k in ks:
        got = attempt(k)
        if isinstance(got, str):
            warnings.append(got)
        else:
            entries.append(got)
    kept = distinct_roots(entries)
    aimed = len({k % n for k in ks})  # branch k + n is branch k
    report = RootReport(kept, method=method, warnings=warnings, aimed=aimed).sort()
    if len(entries) < len(ks):
        report.warnings.append("partial results: some branches did not converge")
    converged = len({e.branch % n for e in entries})
    if len(kept) < converged:
        report.warnings.append(
            f"partial results: {converged} branches gave {len(kept)} distinct roots"
        )
    return report


def _closed(shape: Shape, branches, max_terms) -> RootReport:
    from .closedform import solve_closed

    return solve_closed(shape.poly)


def _split(shape: Shape, branches, max_terms) -> RootReport:
    from .closedform import solve_by_split

    p = shape.poly
    if p.degree % 2 or not 4 <= p.degree <= 10:
        raise ValueError("split needs even degree 4..10")
    return solve_by_split(p.monic())


def _series(shape: Shape, branches, max_terms, route: str = "series") -> RootReport:
    """The series route, and the pfq route (route "pfq") on a trinomial: one
    attempt over trinomial_series_root, whose class sums are the pFq form's.
    route names the method and a diverged branch's warning."""
    from .series import quadrinomial_series_root, trinomial_series_root

    t, w = shape.tri, shape.quad
    if t is not None:
        method, n = f"{route}-trinomial", t.s
    elif w is not None:
        # one root, whatever the branches asked for
        method, n, branches, route = "series-quadrinomial", 1, None, "quadrinomial series"
    else:
        raise ValueError("series method needs a trinomial or quadrinomial shape")

    def attempt(k):
        try:
            if t is not None:
                root, diag = trinomial_series_root(t, k, max_terms)
            else:
                root, diag = quadrinomial_series_root(w, max_terms)
        except DivergenceError:
            return f"branch {k}: {route} diverged"
        if diag.warnings:  # the engine's polish stalled
            return f"branch {k}: {diag.warnings[0]}"
        return RootEntry(root, diag.residual, branch=k, iterations=diag.iterations)

    return _branch_report(method, branches, n, attempt)


def _pfq(shape: Shape, branches, max_terms) -> RootReport:
    if shape.tri is None:
        raise ValueError("pfq method needs a trinomial shape")
    return _series(shape, branches, max_terms, "pfq")


def _radical(shape: Shape, branches, max_terms) -> RootReport:
    from .radicals import (
        quadrinomial_radical_root,
        septic_radical_root,
        trinomial_radical_root,
    )

    t, w = shape.tri, shape.quad
    if t is not None:
        method, n, target = "radical-trinomial", t.s, t.polynomial()

        def iterate(k):
            x, _, status = trinomial_radical_root(t.s, t.b, -t.alpha, t.q, k)
            return x, status
    elif w is not None and w.c != 0:
        # without its x^r term the polynomial goes on to the septic form
        method, n, target = "radical-quadrinomial", w.s, w.polynomial()

        def iterate(k):
            return quadrinomial_radical_root(w.s, w.r, 1, w.c, w.alpha, w.b, k)
    elif shape.septic is not None:
        method, n, target = "radical-septic", 7, shape.poly

        def iterate(k):
            return septic_radical_root(*shape.septic, k)
    else:
        raise ValueError(
            "radical method needs a trinomial, quadrinomial or plain septic shape"
        )

    def attempt(k):
        x, status = iterate(k)
        if status != "converged":
            return f"branch {k}: {status}"
        return _polished(target, x, k)

    return _branch_report(method, branches, n, attempt)


def _grim(shape: Shape, branches, max_terms) -> RootReport:
    from .grim import grim_solve

    return grim_solve(shape.poly)


def _adjacent(shape: Shape, branches, max_terms) -> RootReport:
    from .series import adjacent_septic_root

    if shape.septic is None or shape.septic[0] == 0:
        raise ValueError(
            "adjacent method needs the x^7 + c x^3 + a x^2 + b x - q shape"
        )
    c, a, b, c0 = shape.septic
    root, diag = adjacent_septic_root(c, a, b, -c0, max_terms)
    entry = RootEntry(root, diag.residual, branch=0, iterations=diag.iterations)
    return RootReport([entry], method="adjacent-septic", warnings=diag.warnings, aimed=1)


METHODS = {
    "closed": _closed,
    "split": _split,
    "series": _series,
    "pfq": _pfq,
    "radical": _radical,
    "grim": _grim,
    "adjacent": _adjacent,
    "oracle": lambda shape, branches, max_terms: all_roots_oracle(shape.poly),
}


def solve(
    eq: Polynomial | Trinomial | Quadrinomial,
    method: str = "auto",
    branches: list[int] | None = None,
    max_terms: int = MAX_TERMS,
) -> RootReport:
    """Roots of eq by a method of METHODS. "auto" takes the closed forms up
    to degree 4, the split for even degrees up to 10, the series for
    trinomial shapes and GRIM otherwise. branches picks the branches of
    the series, pfq and radical routes; the others find every root.
    max_terms caps the terms of each series sum. A method that is unknown
    or cannot take eq's shape raises ValueError, and so do an empty branch
    list, a max_terms that is not an int of at least 1 and a non-finite
    coefficient."""
    if branches is not None and not branches:
        raise ValueError("branches must be nonempty")
    _require_count("max_terms", max_terms)
    shape = shape_of(eq)
    for c in shape.poly.coeffs:
        if not cmath.isfinite(c):
            raise ValueError(f"non-finite coefficient {format_coefficient(c)!r}")
    name = _auto(shape) if method == "auto" else method
    route = METHODS.get(name)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    return route(shape, branches, max_terms)


def cross_check(p: Polynomial, report: RootReport, tol: float | None) -> str:
    """"partial" when the report holds fewer roots than it aimed at (all n
    unless report.aimed says otherwise); else "ok", "empty" or "mismatch"
    against the all-roots oracle of p, where a non-finite root on either
    side is a mismatch, and so is a root g farther than max(tol, 1e-7)
    (1 + |g|) from its oracle root (poly.match_roots' pairing when the counts
    agree, else the nearest). The oracle's own warnings go onto the report's,
    and so does the message of a stalled oracle, whose best roots it reads.
    tol=None skips the oracle and reads "ok" unless partial. Either way the
    first non-finite root of the report is named in its warnings."""
    got = report.values()
    bad = [g for g in got if not cmath.isfinite(g)]
    if bad:
        report.warnings.append(f"root {bad[0]} is not finite")
    if tol is None:
        status = "ok"
    else:
        status = "mismatch" if bad else _oracle_status(p, got, report, tol)
    aimed = p.degree if report.aimed is None else report.aimed
    return "partial" if len(report.roots) < aimed else status


def _oracle_status(p: Polynomial, got: list[complex], report: RootReport, tol: float) -> str:
    if not got:
        return "empty"
    try:
        oracle = all_roots_oracle(p)
    except ConvergenceError as exc:
        oracle = exc.best
        report.warnings.append(str(exc))
    report.warnings += oracle.warnings
    for e in oracle.roots:
        if not cmath.isfinite(e.root):
            report.warnings.append(f"oracle root {e.root} is not finite")
            return "mismatch"
    bound = max(tol, 1e-7)
    if len(got) == len(oracle.roots):
        worst = 0.0  # the largest distance of a pair out of bounds
        for i, j in match_roots(got, oracle)[1]:
            dist = abs(got[i] - oracle.roots[j].root)
            if dist > bound * (1.0 + abs(got[i])):
                worst = max(worst, dist)
        if worst:
            report.warnings.append(f"oracle cross-check distance {worst:.3e}")
            return "mismatch"
        return "ok"
    for g in got:
        nearest = min(abs(g - e.root) for e in oracle.roots)
        if nearest > bound * (1.0 + abs(g)):
            report.warnings.append(f"root {g} is {nearest:.3e} from the oracle set")
            return "mismatch"
    return "ok"
