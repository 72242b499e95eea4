"""Command-line front end.

Subcommands: solve, rd-table, pfq, resultant, tschirnhaus. Each handler
imports the route, algebra or numerics module it runs, so importing this
module loads only pipeline and poly of the package. The result types are
plain slotted classes, so neither importing this module nor a solve loads
the standard library's dataclasses (or the inspect module it pulls in);
canonical_json escapes strings itself, so neither loads json.
Output is deterministic; JSON uses a fixed key order and 17-significant-digit
float formatting so that identical invocations are byte-identical and
emitted documents round-trip through a parser unchanged.

Coefficient input is constant term first ("c0,c1,...,cn"), matching the
Polynomial type; note that hand-written algebra usually lists the leading
coefficient first.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .pipeline import METHODS, Shape, cross_check, shape_of, solve
from .poly import (
    MAX_TERMS,
    ConvergenceError,
    GrimError,
    Polynomial,
    Quadrinomial,
    RootReport,
    Trinomial,
    _require_count,
    parse_coefficient,
    parse_poly,
)

USAGE_ERROR = 1
PARTIAL_RESULTS = 2


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


# json.dumps's escapes of a quote, a backslash and every character outside
# printable ASCII: a short escape where JSON has one, else \uXXXX (a
# surrogate pair past the BMP)
_STRING_ESCAPES = {
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
    "\b": "\\b", "\f": "\\f",
}
_NEEDS_ESCAPE = re.compile(r'[\\"]|[^ -~]')


def _escape(match: re.Match) -> str:
    ch = match.group()
    short = _STRING_ESCAPES.get(ch)
    if short is not None:
        return short
    n = ord(ch)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _json_string(text: str) -> str:
    """text as json.dumps writes it, byte for byte (ASCII only)."""
    return '"' + _NEEDS_ESCAPE.sub(_escape, text) + '"'


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, fixed float format."""
    if isinstance(obj, dict):
        inner = ",".join(f"{_json_string(k)}:{canonical_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        # JSON has no NaN or infinity
        return _fmt_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return _json_string(obj)
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


def cmd_solve(args, out, err) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {args.tolerance}")
    if args.trinomial:
        s, b = int(args.trinomial[0]), int(args.trinomial[1])
        alpha, q = (parse_coefficient(v) for v in args.trinomial[2:])
        eq = Trinomial(s, b, alpha, q)
    elif args.quadrinomial:
        s, r = int(args.quadrinomial[0]), int(args.quadrinomial[1])
        c, alpha, b = (parse_coefficient(v) for v in args.quadrinomial[2:])
        eq = Quadrinomial(s, r, c, alpha, b)
    else:
        eq = parse_poly(args.coeffs)
    shape = shape_of(eq)

    if args.plot == "basins":
        return _plot_basins(args, shape, out, err)

    branches = None
    if args.branches:
        branches = [int(tok) for tok in args.branches.split(",") if tok.strip()]
    try:
        report = solve(eq, args.method, branches, args.max_terms)
    except (ConvergenceError, GrimError) as exc:
        err.write(f"error: {exc}\n")
        return PARTIAL_RESULTS

    tol = None if args.no_oracle else args.tolerance
    status = cross_check(shape.poly, report, tol)
    _print_report(report, status, args.json, out)
    return PARTIAL_RESULTS if status == "partial" else 0


def _plot_basins(args, shape: Shape, out, err) -> int:
    """One CSV row per grid point c: the trinomial's alpha, or else the
    constant term, set to c and solved as solve would (series branch 0,
    or grim), with cross_check(..., None)'s word, ok or partial, and the
    largest residual of the roots that came back (nan when none did)."""
    try:
        re0, re1, nre, im0, im1, nim = _parse_grid(args.grid)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return USAGE_ERROR
    _require_count("max_terms", args.max_terms)  # before the header, as solve would
    out.write("param1,param2,method,status,residual\n")
    for i in range(nre):
        re = re0 + (re1 - re0) * i / max(nre - 1, 1)
        for j in range(nim):
            im = im0 + (im1 - im0) * j / max(nim - 1, 1)
            if shape.tri is not None:
                probe = Trinomial(shape.tri.s, shape.tri.b, complex(re, im), shape.tri.q)
                method, branches = "series", [0]
            else:
                coeffs = list(shape.poly.coeffs)
                coeffs[0] = complex(re, im)
                probe, method, branches = Polynomial(coeffs), "grim", None
            try:
                report = solve(probe, method, branches, args.max_terms)
                status = cross_check(shape_of(probe).poly, report, None)
                residual = max((e.residual for e in report.roots), default=math.nan)
            except GrimError:
                status, residual = "partial", math.nan
            out.write(
                f"{_fmt_float(re)},{_fmt_float(im)},{method},{status},{_fmt_float(residual)}\n"
            )
    return 0


def _parse_grid(text: str) -> tuple[float, float, int, float, float, int]:
    bad = f"bad grid {text!r}, expected 'r0:r1:n,i0:i1:m'"
    try:
        re_part, im_part = text.split(",")
        r0, r1, nr = re_part.split(":")
        i0, i1, ni = im_part.split(":")
        grid = float(r0), float(r1), int(nr), float(i0), float(i1), int(ni)
    except Exception as exc:
        raise ValueError(bad) from exc
    if grid[2] < 1 or grid[5] < 1:
        raise ValueError(bad)  # a count below 1 plots no point
    if not all(map(math.isfinite, grid)):
        raise ValueError(bad)
    return grid


def cmd_rd_table(args, out, err) -> int:
    from .algebra import brauer_rd

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
    from .numerics import PFQParams, PoleError, pfq_eval

    upper = tuple(parse_coefficient(t) for t in args.upper.split(",") if t.strip())
    lower = tuple(parse_coefficient(t) for t in args.lower.split(",") if t.strip())
    z = parse_coefficient(args.z)
    try:
        res = pfq_eval(PFQParams(upper, lower), z, args.max_terms, args.regularized)
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
    from .algebra import sylvester_resultant

    p = parse_poly(args.p)
    q = parse_poly(args.q)
    value = sylvester_resultant(p, q)
    if args.json:
        out.write(canonical_json({"re": value.real, "im": value.imag}) + "\n")
    else:
        out.write(f"resultant: {value.real:+.15g}{value.imag:+.15g}i\n")
    return 0


def cmd_tschirnhaus(args, out, err) -> int:
    from .algebra import tschirnhaus_quadratic

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
        choices=["auto", *METHODS],
    )
    ps.add_argument("--tolerance", type=float, default=1e-8)
    ps.add_argument("--max-terms", type=int, default=MAX_TERMS)
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
    pq.add_argument("--max-terms", type=int, default=MAX_TERMS)
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
