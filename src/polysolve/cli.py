"""Command-line front end.

Subcommands: solve, rd-table, pfq, resultant, tschirnhaus. Output is
deterministic; JSON uses a fixed key order and 17-significant-digit float
formatting so that identical invocations are byte-identical and emitted
documents round-trip through a parser unchanged.

Coefficient input is constant term first ("c0,c1,...,cn"), matching the
Polynomial type; note that hand-written algebra usually lists the leading
coefficient first.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .closedform import solve_by_split, solve_cubic, solve_quadratic, solve_quartic
from .grim import GrimConfig, grim_solve
from .numerics import DivergenceError, PFQParams, PoleError, SeriesConfig, pfq_eval
from .poly import (
    ConvergenceError,
    Polynomial,
    RootEntry,
    RootReport,
    all_roots_oracle,
    brauer_rd,
    match_roots,
    newton_polish,
    parse_coefficient,
    parse_poly,
    scaled_residual,
    sylvester_resultant,
    tschirnhaus_quadratic,
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

USAGE_ERROR = 1
PARTIAL_RESULTS = 2


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, fixed float format."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _report_payload(report: RootReport, status: str) -> dict:
    return {
        "method": report.method,
        "roots": [
            {
                "re": e.root.real,
                "im": e.root.imag,
                "residual": e.residual,
                "branch": e.branch,
            }
            for e in report.roots
        ],
        "warnings": list(report.warnings),
        "status": status,
    }


def _print_report(report: RootReport, status: str, as_json: bool, out) -> None:
    if as_json:
        out.write(canonical_json(_report_payload(report, status)) + "\n")
        return
    out.write(f"method: {report.method}\n")
    for e in report.roots:
        out.write(
            f"  root {e.root.real:+.15g}{e.root.imag:+.15g}i"
            f"  residual {e.residual:.2e}  branch {e.branch}\n"
        )
    for w in report.warnings:
        out.write(f"warning: {w}\n")
    out.write(f"status: {status}\n")


def _parse_branches(text: str | None, n: int) -> list[int]:
    if text is None:
        return list(range(n))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _trinomial_shape(p: Polynomial) -> Trinomial | None:
    """Recognize x^s - alpha x^b - q with s >= 2, 1 <= b < s, q != 0."""
    s = p.degree
    if s < 2:
        return None
    q = p.monic()
    nz = [i for i, cv in enumerate(q.coeffs) if cv != 0 and 0 < i < s]
    if len(nz) != 1 or q.coeffs[0] == 0:
        return None
    b = nz[0]
    return Trinomial(s, b, -q.coeffs[b], -q.coeffs[0])


def _quadrinomial_shape(p: Polynomial) -> Quadrinomial | None:
    """Recognize x^s + c x^r + alpha x - b with s >= 4, 2 <= r <= s-2."""
    s = p.degree
    if s < 4:
        return None
    q = p.monic()
    if q.coeffs[1] == 0:
        return None
    nz = [i for i, cv in enumerate(q.coeffs) if cv != 0 and 1 < i < s]
    if len(nz) != 1:
        return None
    r = nz[0]
    if not 2 <= r <= s - 2:
        return None
    return Quadrinomial(s, r, q.coeffs[r], q.coeffs[1], -q.coeffs[0])


def _adjacent_shape(p: Polynomial) -> tuple[complex, complex, complex, complex] | None:
    """Recognize x^7 + c x^3 + a x^2 + b x - q."""
    if p.degree != 7:
        return None
    q = p.monic()
    if any(q.coeffs[i] != 0 for i in (4, 5, 6)):
        return None
    if q.coeffs[3] == 0:
        return None
    return q.coeffs[3], q.coeffs[2], q.coeffs[1], -q.coeffs[0]


def _series_roots(p: Polynomial, tri: Trinomial | None, quad: Quadrinomial | None,
                  branches: list[int] | None, cfg: SeriesConfig) -> RootReport:
    warnings: list[str] = []
    entries: list[RootEntry] = []
    diverged = False
    if tri is not None:
        ks = branches if branches is not None else list(range(tri.s))
        for k in ks:
            try:
                root, diag = trinomial_series_root(tri, k, cfg)
                entries.append(RootEntry(root, diag.residual, branch=k,
                                         iterations=diag.iterations))
            except DivergenceError:
                diverged = True
                warnings.append(f"branch {k}: series diverged")
        method = "series-trinomial"
    elif quad is not None:
        try:
            root, diag = quadrinomial_series_root(quad, cfg)
            entries.append(RootEntry(root, diag.residual, branch=0,
                                     iterations=diag.iterations))
        except DivergenceError:
            diverged = True
            warnings.append("quadrinomial series diverged")
        method = "series-quadrinomial"
    else:
        raise ValueError("series method needs a trinomial or quadrinomial shape")
    kept: list[RootEntry] = []
    for e in sorted(entries, key=lambda e: e.residual):
        if all(abs(e.root - other.root) > 1e-8 * (1 + abs(e.root)) for other in kept):
            kept.append(e)
    report = RootReport(kept, method=method, warnings=warnings).sort()
    if diverged:
        report.warnings.append("partial results: some branches diverged")
    return report


def _pfq_roots(tri: Trinomial, branches: list[int] | None, cfg: SeriesConfig) -> RootReport:
    p = tri.polynomial()
    ks = branches if branches is not None else list(range(tri.s))
    entries: list[RootEntry] = []
    warnings: list[str] = []
    for k in ks:
        form = trinomial_pfq_root(tri, k)
        value, status = form.evaluate(cfg)
        if status != "converged":
            warnings.append(f"branch {k}: pfq {status}")
            continue
        try:
            root, res, its = newton_polish(p, value, tol=1e-11, max_iter=80)
        except ConvergenceError as exc:
            root, res, its = exc.best
        entries.append(RootEntry(root, res, branch=k, iterations=its))
    return RootReport(entries, method="pfq-trinomial", warnings=warnings).sort()


def _radical_roots(p: Polynomial, tri: Trinomial | None,
                   branches: list[int] | None) -> RootReport:
    entries: list[RootEntry] = []
    warnings: list[str] = []
    if tri is not None:
        ks = branches if branches is not None else list(range(tri.s))
        target = tri.polynomial()
        for k in ks:
            x, _, status = trinomial_radical_root(
                tri.s, tri.b, -tri.alpha, tri.q, RadicalIterConfig(k=k)
            )
            if status != "converged":
                warnings.append(f"branch {k}: {status}")
                continue
            try:
                root, res, its = newton_polish(target, x, tol=1e-11, max_iter=80)
            except ConvergenceError as exc:
                root, res, its = exc.best
            entries.append(RootEntry(root, res, branch=k, iterations=its))
        method = "radical-trinomial"
    elif (quad := _quadrinomial_shape(p)) is not None:
        ks = branches if branches is not None else list(range(quad.s))
        target = quad.polynomial()
        for k in ks:
            x, status = quadrinomial_radical_root(
                quad.s, quad.r, 1, quad.c, quad.alpha, quad.b,
                RadicalIterConfig(k=k),
            )
            if status != "converged":
                warnings.append(f"branch {k}: {status}")
                continue
            try:
                root, res, its = newton_polish(target, x, tol=1e-11, max_iter=80)
            except ConvergenceError as exc:
                root, res, its = exc.best
            entries.append(RootEntry(root, res, branch=k, iterations=its))
        method = "radical-quadrinomial"
    else:
        shape = _septic_radical_shape(p)
        if shape is None:
            raise ValueError(
                "radical method needs a trinomial, quadrinomial or plain septic shape"
            )
        alpha, beta, gamma, delta = shape
        ks = branches if branches is not None else list(range(7))
        for k in ks:
            x, status = septic_radical_root(
                alpha, beta, gamma, delta, RadicalIterConfig(k=k)
            )
            if status != "converged":
                warnings.append(f"branch {k}: {status}")
                continue
            entries.append(RootEntry(x, scaled_residual(p, x), branch=k))
        method = "radical-septic"
    kept: list[RootEntry] = []
    for e in sorted(entries, key=lambda e: e.residual):
        if all(abs(e.root - other.root) > 1e-8 * (1 + abs(e.root)) for other in kept):
            kept.append(e)
    return RootReport(kept, method=method, warnings=warnings).sort()


def _septic_radical_shape(p: Polynomial):
    if p.degree != 7:
        return None
    q = p.monic()
    if any(q.coeffs[i] != 0 for i in (4, 5, 6)):
        return None
    return q.coeffs[3], q.coeffs[2], q.coeffs[1], q.coeffs[0]


def _adjacent_roots(p: Polynomial, cfg: SeriesConfig) -> RootReport:
    shape = _adjacent_shape(p)
    if shape is None:
        raise ValueError(
            "adjacent method needs the x^7 + c x^3 + a x^2 + b x - q shape"
        )
    c, a, b, q = shape
    root, diag = adjacent_septic_root(c, a, b, q, cfg)
    entry = RootEntry(root, diag.residual, branch=0, iterations=diag.iterations)
    return RootReport([entry], method="adjacent-septic", warnings=diag.warnings)


def _closed_roots(p: Polynomial) -> RootReport:
    if p.degree == 1:
        root = -p.coeffs[0] / p.coeffs[1]
        return RootReport(
            [RootEntry(root, scaled_residual(p, root))], method="closed-linear"
        )
    if p.degree == 2:
        return solve_quadratic(p)
    if p.degree == 3:
        return solve_cubic(p)
    if p.degree == 4:
        return solve_quartic(p)
    raise ValueError("closed method needs degree <= 4")


def cmd_solve(args, out, err) -> int:
    cfg = SeriesConfig(max_terms=args.max_terms)
    tri: Trinomial | None = None
    quad: Quadrinomial | None = None
    if args.trinomial:
        s, b = int(args.trinomial[0]), int(args.trinomial[1])
        alpha, q = (parse_coefficient(v) for v in args.trinomial[2:])
        tri = Trinomial(s, b, alpha, q)
        p = tri.polynomial()
    elif args.quadrinomial:
        s, r = int(args.quadrinomial[0]), int(args.quadrinomial[1])
        c, alpha, b = (parse_coefficient(v) for v in args.quadrinomial[2:])
        quad = Quadrinomial(s, r, c, alpha, b)
        p = quad.polynomial()
    else:
        p = parse_poly(args.coeffs)
        tri = _trinomial_shape(p)
        quad = _quadrinomial_shape(p)
    if p.degree < 1:
        err.write("error: constant polynomial has no roots to find\n")
        return USAGE_ERROR

    if args.plot == "basins":
        return _plot_basins(args, p, tri, out, err)

    method = args.method
    if method == "auto":
        if p.degree <= 4:
            method = "closed"
        elif p.degree % 2 == 0 and p.degree <= 10:
            method = "split"
        elif tri is not None or quad is not None:
            method = "series"
        else:
            method = "grim"

    branches = _parse_branches(args.branches, p.degree) if args.branches else None
    try:
        if method == "closed":
            report = _closed_roots(p)
        elif method == "split":
            if p.degree % 2 or not 4 <= p.degree <= 10:
                err.write("error: split needs even degree 4..10\n")
                return USAGE_ERROR
            report = solve_by_split(p.monic())
        elif method == "series":
            report = _series_roots(p, tri, quad, branches, cfg)
        elif method == "pfq":
            if tri is None:
                err.write("error: pfq method needs a trinomial shape\n")
                return USAGE_ERROR
            report = _pfq_roots(tri, branches, cfg)
        elif method == "radical":
            report = _radical_roots(p, tri, branches)
        elif method == "adjacent":
            report = _adjacent_roots(p, cfg)
        elif method == "grim":
            report = grim_solve(p, GrimConfig(branches=branches))
        elif method == "oracle":
            report = all_roots_oracle(p)
        else:
            err.write(f"error: unknown method {method!r}\n")
            return USAGE_ERROR
    except (ValueError, PoleError) as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR
    except DivergenceError as exc:
        report = RootReport([], method=method, warnings=[str(exc)])
        _print_report(report, "diverged", args.json, out)
        return PARTIAL_RESULTS
    except ConvergenceError as exc:
        err.write(f"error: {exc}\n")
        return PARTIAL_RESULTS

    status = "ok"
    if not args.no_oracle and p.degree >= 1:
        status = _cross_check(p, report, args.tolerance)
    partial = any("partial" in w or "diverged" in w for w in report.warnings)
    _print_report(report, "partial" if partial else status, args.json, out)
    return PARTIAL_RESULTS if partial else 0


def _cross_check(p: Polynomial, report: RootReport, tol: float) -> str:
    try:
        oracle = all_roots_oracle(p)
    except ConvergenceError as exc:
        oracle = exc.best
    got = report.values()
    if not got:
        return "empty"
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


def _plot_basins(args, p: Polynomial, tri, out, err) -> int:
    try:
        re0, re1, nre, im0, im1, nim = _parse_grid(args.grid)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR
    out.write("param1,param2,method,status,residual\n")
    cfg = SeriesConfig(max_terms=args.max_terms)
    for i in range(nre):
        re = re0 + (re1 - re0) * i / max(nre - 1, 1)
        for j in range(nim):
            im = im0 + (im1 - im0) * j / max(nim - 1, 1)
            if tri is not None:
                probe = Trinomial(tri.s, tri.b, complex(re, im), tri.q)
                try:
                    _, diag = trinomial_series_root(probe, 0, cfg)
                    status, residual = diag.status, diag.residual
                except DivergenceError:
                    status, residual = "diverged", float("nan")
                method = "series"
            else:
                coeffs = list(p.coeffs)
                coeffs[0] = complex(re, im)
                probe_p = Polynomial(coeffs)
                try:
                    rep = grim_solve(probe_p)
                    status = "converged" if len(rep.roots) == probe_p.degree else "partial"
                    residual = max(e.residual for e in rep.roots)
                except Exception:
                    status, residual = "diverged", float("nan")
                method = "grim"
            out.write(
                f"{_fmt_float(re)},{_fmt_float(im)},{method},{status},{_fmt_float(residual)}\n"
            )
    return 0


def _parse_grid(text: str) -> tuple[float, float, int, float, float, int]:
    try:
        re_part, im_part = text.split(",")
        r0, r1, nr = re_part.split(":")
        i0, i1, ni = im_part.split(":")
        return float(r0), float(r1), int(nr), float(i0), float(i1), int(ni)
    except Exception as exc:
        raise ValueError(
            f"bad grid {text!r}, expected 'r0:r1:n,i0:i1:m'"
        ) from exc


def cmd_rd_table(args, out, err) -> int:
    rows = []
    for n in args.n:
        if n < 5:
            err.write(f"error: rd-table needs n >= 5, got {n}\n")
            return USAGE_ERROR
        rows.append(brauer_rd(n))
    if args.json:
        payload = {"rows": [{"n": r.n, "rd_max": r.rd_max, "r": r.r} for r in rows]}
        out.write(canonical_json(payload) + "\n")
    else:
        out.write("n       RD(n)max  r\n")
        for r in rows:
            out.write(f"{r.n:<7d} {r.rd_max:<9d} {r.r}\n")
    return 0


def cmd_pfq(args, out, err) -> int:
    upper = tuple(parse_coefficient(t) for t in args.upper.split(",") if t.strip())
    lower = tuple(parse_coefficient(t) for t in args.lower.split(",") if t.strip())
    z = parse_coefficient(args.z)
    try:
        res = pfq_eval(
            PFQParams(upper, lower),
            z,
            SeriesConfig(max_terms=args.max_terms),
            regularized=args.regularized,
        )
    except PoleError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR
    payload = {
        "value": {"re": res.value.real, "im": res.value.imag},
        "terms_used": res.terms_used,
        "status": res.status,
    }
    if args.json:
        out.write(canonical_json(payload) + "\n")
    else:
        out.write(
            f"value: {res.value.real:+.15g}{res.value.imag:+.15g}i  "
            f"terms: {res.terms_used}  status: {res.status}\n"
        )
    return PARTIAL_RESULTS if res.status == "diverged" else 0


def cmd_resultant(args, out, err) -> int:
    p = parse_poly(args.p)
    q = parse_poly(args.q)
    value = sylvester_resultant(p, q)
    if args.json:
        out.write(canonical_json({"re": value.real, "im": value.imag}) + "\n")
    else:
        out.write(f"resultant: {value.real:+.15g}{value.imag:+.15g}i\n")
    return 0


def cmd_tschirnhaus(args, out, err) -> int:
    p = parse_poly(args.coeffs)
    try:
        transformed, a1, a2 = tschirnhaus_quadratic(p.monic())
    except Exception as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR
    if args.json:
        payload = {
            "coeffs": [{"re": c.real, "im": c.imag} for c in transformed.coeffs],
            "alpha1": {"re": a1.real, "im": a1.imag},
            "alpha2": {"re": a2.real, "im": a2.imag},
        }
        out.write(canonical_json(payload) + "\n")
    else:
        out.write(f"transformed: {transformed}\n")
        out.write(f"alpha1: {a1.real:+.15g}{a1.imag:+.15g}i\n")
        out.write(f"alpha2: {a2.real:+.15g}{a2.imag:+.15g}i\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # let coefficient values like "-1,0,0,1" or "-2+0.5i" pass as arguments
    value_matcher = re.compile(r"^-\d")

    parser = argparse.ArgumentParser(
        prog="polysolve",
        description="Polynomial roots via closed forms, series, radicals and iteration",
    )
    parser._negative_number_matcher = value_matcher
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a polynomial equation")
    ps._negative_number_matcher = value_matcher
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", help="constant-term-first coefficient list")
    group.add_argument(
        "--trinomial", nargs=4, metavar=("S", "B", "ALPHA", "Q"),
        help="x^s - alpha x^b - q = 0",
    )
    group.add_argument(
        "--quadrinomial", nargs=5, metavar=("S", "R", "C", "ALPHA", "B"),
        help="x^s + c x^r + alpha x - b = 0",
    )
    ps.add_argument(
        "--method",
        default="auto",
        choices=["auto", "closed", "split", "series", "pfq", "radical", "grim",
                 "adjacent", "oracle"],
    )
    ps.add_argument("--tolerance", type=float, default=1e-8)
    ps.add_argument("--max-terms", type=int, default=400)
    ps.add_argument("--branches", help="comma-separated branch indices")
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--no-oracle", action="store_true")
    ps.add_argument("--plot", choices=["basins"])
    ps.add_argument("--grid", default="-1:1:11,-1:1:11")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("rd-table", help="degree-reduction bound table")
    pr._negative_number_matcher = value_matcher
    pr.add_argument("n", type=int, nargs="+")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_rd_table)

    pq = sub.add_parser("pfq", help="evaluate a generalized hypergeometric series")
    pq._negative_number_matcher = value_matcher
    pq.add_argument("--upper", default="")
    pq.add_argument("--lower", default="")
    pq.add_argument("--z", required=True)
    pq.add_argument("--max-terms", type=int, default=400)
    pq.add_argument("--regularized", action="store_true")
    pq.add_argument("--json", action="store_true")
    pq.set_defaults(func=cmd_pfq)

    pres = sub.add_parser("resultant", help="Sylvester resultant of two polynomials")
    pres._negative_number_matcher = value_matcher
    pres.add_argument("p")
    pres.add_argument("q")
    pres.add_argument("--json", action="store_true")
    pres.set_defaults(func=cmd_resultant)

    pt = sub.add_parser("tschirnhaus", help="principal form of a monic quintic")
    pt._negative_number_matcher = value_matcher
    pt.add_argument("coeffs")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_tschirnhaus)

    return parser


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args, out, err)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
