"""One solve pipeline for the library and the command line: shape
recognition, the method table with its ``auto`` rule, and the oracle
cross-check. Routes look solvers up as module globals at call time, so a
wrapper installed on a module attribute sees every call."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .closedform import solve_by_split, solve_closed
from .grim import GrimConfig, grim_solve
from .numerics import DivergenceError, SeriesConfig
from .poly import (
    ConvergenceError,
    Polynomial,
    RootEntry,
    RootReport,
    all_roots_oracle,
    distinct_roots,
    format_coefficient,
    match_roots,
    polish,
    scaled_residual,
)
from .radicals import (
    RadicalIterConfig,
    quadrinomial_radical_root,
    septic_radical_root,
    trinomial_radical_root,
)
from .series import (
    Quadrinomial,
    Trinomial,
    adjacent_septic_root,
    quadrinomial_series_root,
    trinomial_pfq_root,
    trinomial_series_root,
)


@dataclass(frozen=True)
class Shape:
    """What the routes need to know about an equation.

    tri is x^s - alpha x^b - q (q != 0); quad is x^s + c x^r + alpha x - b
    (2 <= r <= s-2); septic holds (c3, c2, c1, c0) of a monic degree-7
    polynomial without x^4..x^6 terms.
    """

    poly: Polynomial
    tri: Trinomial | None = None
    quad: Quadrinomial | None = None
    septic: tuple[complex, complex, complex, complex] | None = None


def shape_of(eq: Polynomial | Trinomial | Quadrinomial) -> Shape:
    """Recognize the shape of a polynomial; a Trinomial or Quadrinomial is
    taken as given, even when one of its coefficients is zero."""
    if isinstance(eq, (Trinomial, Quadrinomial)):
        found = shape_of(eq.polynomial())
        if isinstance(eq, Trinomial):
            return replace(found, tri=eq, quad=None)
        return replace(found, tri=None, quad=eq)
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
    if shape.tri is not None or shape.quad is not None:
        return "series"
    return "grim"


def _polished(target: Polynomial, x: complex, k: int) -> RootEntry:
    root, res, its, _ = polish(target, x, tol=1e-11, max_iter=80)
    return RootEntry(root, res, branch=k, iterations=its)


def _branch_report(method: str, branches: list[int] | None, n: int, attempt,
                   failed: str = "did not converge") -> RootReport:
    """Run attempt(k) for each branch k (all n by default): it returns a
    RootEntry, or the warning text of a branch that failed. The roots go
    through poly.distinct_roots; any failed branch marks the report
    partial, and so do distinct branches that landed on one root."""
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
    report = RootReport(kept, method=method, warnings=warnings).sort()
    if len(entries) < len(ks):
        report.warnings.append(f"partial results: some branches {failed}")
    converged = len({e.branch % n for e in entries})  # branch k + n is branch k
    if len(kept) < converged:
        report.warnings.append(
            f"partial results: {converged} branches gave {len(kept)} distinct roots"
        )
    return report


def _split(shape: Shape, branches, cfg) -> RootReport:
    p = shape.poly
    if p.degree % 2 or not 4 <= p.degree <= 10:
        raise ValueError("split needs even degree 4..10")
    return solve_by_split(p.monic())


def _series(shape: Shape, branches, cfg) -> RootReport:
    t, w = shape.tri, shape.quad
    if t is not None:
        def attempt(k):
            try:
                root, diag = trinomial_series_root(t, k, cfg)
            except DivergenceError:
                return f"branch {k}: series diverged"
            return RootEntry(root, diag.residual, branch=k, iterations=diag.iterations)

        return _branch_report("series-trinomial", branches, t.s, attempt, "diverged")
    if w is not None:
        def attempt(k):
            try:
                root, diag = quadrinomial_series_root(w, cfg)
            except DivergenceError:
                return "quadrinomial series diverged"
            return RootEntry(root, diag.residual, branch=0, iterations=diag.iterations)

        # one root, whatever the branches asked for
        return _branch_report("series-quadrinomial", None, 1, attempt, "diverged")
    raise ValueError("series method needs a trinomial or quadrinomial shape")


def _pfq(shape: Shape, branches, cfg) -> RootReport:
    t = shape.tri
    if t is None:
        raise ValueError("pfq method needs a trinomial shape")
    target = t.polynomial()

    def attempt(k):
        value, status = trinomial_pfq_root(t, k).evaluate(cfg)
        if status != "converged":
            return f"branch {k}: pfq {status}"
        return _polished(target, value, k)

    return _branch_report("pfq-trinomial", branches, t.s, attempt)


def _radical(shape: Shape, branches, cfg) -> RootReport:
    t, w = shape.tri, shape.quad
    if t is not None:
        method, n, target = "radical-trinomial", t.s, t.polynomial()

        def iterate(k):
            x, _, status = trinomial_radical_root(
                t.s, t.b, -t.alpha, t.q, RadicalIterConfig(k=k)
            )
            return x, status
    elif w is not None and w.c != 0:
        # without its x^r term the polynomial goes on to the septic form
        method, n, target = "radical-quadrinomial", w.s, w.polynomial()

        def iterate(k):
            return quadrinomial_radical_root(
                w.s, w.r, 1, w.c, w.alpha, w.b, RadicalIterConfig(k=k)
            )
    elif shape.septic is not None:
        # septic_radical_root polishes against the septic itself
        method, n, target = "radical-septic", 7, None

        def iterate(k):
            return septic_radical_root(*shape.septic, RadicalIterConfig(k=k))
    else:
        raise ValueError(
            "radical method needs a trinomial, quadrinomial or plain septic shape"
        )

    def attempt(k):
        x, status = iterate(k)
        if status != "converged":
            return f"branch {k}: {status}"
        if target is None:
            return RootEntry(x, scaled_residual(shape.poly, x), branch=k)
        return _polished(target, x, k)

    return _branch_report(method, branches, n, attempt)


def _adjacent(shape: Shape, branches, cfg) -> RootReport:
    if shape.septic is None or shape.septic[0] == 0:
        raise ValueError(
            "adjacent method needs the x^7 + c x^3 + a x^2 + b x - q shape"
        )
    c, a, b, c0 = shape.septic
    root, diag = adjacent_septic_root(c, a, b, -c0, cfg)
    entry = RootEntry(root, diag.residual, branch=0, iterations=diag.iterations)
    return RootReport([entry], method="adjacent-septic", warnings=diag.warnings)


METHODS = {
    "closed": lambda shape, branches, cfg: solve_closed(shape.poly),
    "split": _split,
    "series": _series,
    "pfq": _pfq,
    "radical": _radical,
    "grim": lambda shape, branches, cfg: grim_solve(
        shape.poly, GrimConfig(branches=branches)
    ),
    "adjacent": _adjacent,
    "oracle": lambda shape, branches, cfg: all_roots_oracle(shape.poly),
}


def solve(
    eq: Polynomial | Trinomial | Quadrinomial,
    method: str = "auto",
    branches: list[int] | None = None,
    cfg: SeriesConfig = SeriesConfig(),
) -> RootReport:
    """Roots of eq by a method of METHODS. "auto" takes the closed forms up
    to degree 4, the split for even degrees up to 10, the series for
    trinomial and quadrinomial shapes and GRIM otherwise. branches picks
    the branches of the series, pfq, radical and GRIM routes. A method that
    is unknown or cannot take eq's shape raises ValueError, and so does a
    non-finite coefficient."""
    shape = shape_of(eq)
    for c in shape.poly.coeffs:
        if not cmath.isfinite(c):
            raise ValueError(f"non-finite coefficient {format_coefficient(c)!r}")
    name = _auto(shape) if method == "auto" else method
    route = METHODS.get(name)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    return route(shape, branches, cfg)


def cross_check(p: Polynomial, report: RootReport, tol: float) -> str:
    """"ok", "empty" or "mismatch" against the all-roots oracle of p: a
    non-finite root, a root farther than max(tol, 1e-7) (relative) from the
    oracle set, or a grim report with fewer than n roots is a mismatch."""
    got = report.values()
    if not got:
        return "empty"
    for g in got:
        if not (math.isfinite(g.real) and math.isfinite(g.imag)):
            report.warnings.append(f"root {g} is not finite")
            return "mismatch"
    try:
        oracle = all_roots_oracle(p)
    except ConvergenceError as exc:
        oracle = exc.best
    # GRIM aims at every root; the series routes return the branches asked for
    if report.method == "grim" and len(got) < p.degree:
        return "mismatch"
    if len(got) == len(oracle.roots):
        worst, _ = match_roots(report, oracle)
        if worst <= max(tol, 1e-7) * (1.0 + max(abs(g) for g in got)):
            return "ok"
        report.warnings.append(f"oracle cross-check distance {worst:.3e}")
        return "mismatch"
    for g in got:
        nearest = min(abs(g - e.root) for e in oracle.roots)
        if nearest > max(tol, 1e-7) * (1.0 + abs(g)):
            report.warnings.append(f"root {g} is {nearest:.3e} from the oracle set")
            return "mismatch"
    return "ok"
