"""Spans around the calls into each polysolve module, recorded from outside.

``Tracer.install`` replaces each public function below at every name its
callers look up (``polysolve.poly.newton_polish`` and
``polysolve.grim.newton_polish`` alike) with a wrapper that records a span:
name, start, end, parent span, the ``eval_poly`` calls made inside it and
a work count read from what the call returned. Nothing under src/ changes.
Spans stay in memory, one tuple each, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from fractions import Fraction
from time import perf_counter_ns

FLAG_RAISED = 1
FLAG_STALLED = 2

# Closed-form solvers reported together as closedform.closed_forms.
CLOSED_FORMS = (
    "closedform.solve_quadratic",
    "closedform.solve_cubic",
    "closedform.solve_quartic",
)


def _polish_work(args, result):
    return result[2]


def _polish_stall(args, exc):
    best = getattr(exc, "best", None)
    if exc.__class__.__name__ == "ConvergenceError" and best is not None:
        return best[2], FLAG_STALLED
    return 0, FLAG_RAISED


def _degree(args, result):
    return args[0].degree


def _degree_on_raise(args, exc):
    return args[0].degree, FLAG_RAISED


def _kept_roots(args, result):
    return len(result.roots)


def _series_terms(args, result):
    return result[1].terms_used


def _pfq_terms(args, result):
    return result.terms_used


# span name -> (module, attribute, work from result, (work, flag) on raise)
SPANS = {
    "poly.newton_polish": ("polysolve.poly", "newton_polish", _polish_work, _polish_stall),
    "poly.all_roots_oracle": ("polysolve.poly", "all_roots_oracle", _degree, _degree_on_raise),
    "closedform.square_difference_split": ("polysolve.closedform", "square_difference_split", None, None),
    "closedform.solve_by_split": ("polysolve.closedform", "solve_by_split", None, None),
    "closedform.solve_quadratic": ("polysolve.closedform", "solve_quadratic", None, None),
    "closedform.solve_cubic": ("polysolve.closedform", "solve_cubic", None, None),
    "closedform.solve_quartic": ("polysolve.closedform", "solve_quartic", None, None),
    "grim.grim_solve": ("polysolve.grim", "grim_solve", _kept_roots, None),
    "series.trinomial_series_root": ("polysolve.series", "trinomial_series_root", _series_terms, None),
    "series.trinomial_pfq_root": ("polysolve.series", "trinomial_pfq_root", None, None),
    "series.pfq_form_evaluate": ("polysolve.series", "PFQRootForm.evaluate", None, None),
    "numerics.pfq_eval": ("polysolve.numerics", "pfq_eval", _pfq_terms, None),
    "cli.main": ("polysolve.cli", "main", None, None),
}


class Tracer:
    """Span store: one (name, parent, start, end, evals, work, flag) tuple per
    wrapped call, in the order calls began; parent is an index, -1 at the top."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.eval_calls = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, work=None, on_raise=None):
        """Wrap fn so that each call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # the slot keeps the order calls began in
            stack.append(idx)
            evals = self.eval_calls
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = perf_counter_ns()
                stack.pop()
                amount, flag = on_raise(args, exc) if on_raise else (0, FLAG_RAISED)
                spans[idx] = (name, parent, start, end, self.eval_calls - evals, amount, flag)
                raise
            end = perf_counter_ns()
            stack.pop()
            amount = work(args, result) if work is not None else 0
            spans[idx] = (name, parent, start, end, self.eval_calls - evals, amount, 0)
            return result

        return wrapper

    def counter(self, fn):
        """Wrap a hot leaf (eval_poly) so that it only counts calls."""

        @functools.wraps(fn)
        def wrapper(*args):
            self.eval_calls += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each polysolve name bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polysolve" or name.startswith("polysolve.")]
        targets = []
        for span_name, (module, attr, work, on_raise) in SPANS.items():
            if module not in sys.modules:
                continue
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.span(span_name, original, work, on_raise))
                continue
            original = getattr(owner, attr)
            targets.append((original, self.span(span_name, original, work, on_raise)))
        poly = sys.modules["polysolve.poly"]
        targets.append((poly.eval_poly, self.counter(poly.eval_poly)))
        for original, wrapped in targets:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- moving spans between processes and to disk ---------------------

    def to_json(self) -> dict:
        return {"spans": self.spans, "eval_calls": self.eval_calls}

    def extend(self, doc: dict) -> None:
        """Append the spans of another tracer (a traced child process)."""
        offset = len(self.spans)
        for name, parent, *rest in doc["spans"]:
            self.spans.append((name, parent + offset if parent >= 0 else -1, *rest))
        self.eval_calls += doc["eval_calls"]

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(self.to_json(), fh)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, _, lo, hi, *_rest), kids in zip(spans, children):
        covered = 0
        reach = lo
        for c in sorted(kids, key=lambda j: spans[j][2]):
            a, b = max(spans[c][2], reach), min(spans[c][3], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append(hi - lo - covered)
    return out


class Totals:
    """Per-span-name sums over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.oracle_sweeps = Fraction(0)
        self.stalls: dict[str, int] = {}
        self.outer_closed = 0
        self.grim_polishes = 0
        self.eval_calls = tracer.eval_calls
        for (name, parent, _, _, evals, work, flag), own in zip(spans, self_times(spans)):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.work[name] = self.work.get(name, 0) + work
            if flag == FLAG_STALLED:
                self.stalls[name] = self.stalls.get(name, 0) + 1
            if name == "poly.all_roots_oracle":
                # eval_poly calls over the degree, summed exactly so that the
                # mean repeats whatever the number of rounds
                self.oracle_sweeps += Fraction(evals, int(work))
            up = spans[parent][0] if parent >= 0 else None
            if name in CLOSED_FORMS and up not in CLOSED_FORMS:
                self.outer_closed += 1
            if name == "poly.newton_polish" and up == "grim.grim_solve":
                self.grim_polishes += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, interpreter_ms: float,
                  import_ms: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each normalised per operation or per call.

    A ratio whose base is zero (a layer the workload never calls) reads 0.
    """
    t = Totals(tracer)

    def calls(name):
        return t.calls.get(name, 0)

    def self_ms(*names):
        return sum(t.self_ns.get(n, 0) for n in names) / 1e6 / ops

    polish = "poly.newton_polish"
    oracle = "poly.all_roots_oracle"
    series = "series.trinomial_series_root"
    pfq = "numerics.pfq_eval"
    cli_calls = calls("cli.main")
    return {
        "poly.eval_poly.calls_per_solve": (t.eval_calls / ops, "count"),
        "poly.newton_polish.calls_per_solve": (calls(polish) / ops, "count"),
        "poly.newton_polish.iters_per_call": (_ratio(t.work.get(polish, 0.0), calls(polish)), "count"),
        "poly.newton_polish.stalls_per_solve": (t.stalls.get(polish, 0) / ops, "count"),
        "poly.newton_polish.self_ms_per_solve": (self_ms(polish), "ms"),
        "poly.all_roots_oracle.calls_per_solve": (calls(oracle) / ops, "count"),
        "poly.all_roots_oracle.sweeps_per_call": (float(_ratio(t.oracle_sweeps, calls(oracle))), "count"),
        "poly.all_roots_oracle.self_ms_per_solve": (self_ms(oracle), "ms"),
        "closedform.square_difference_split.calls_per_solve": (calls("closedform.square_difference_split") / ops, "count"),
        "closedform.square_difference_split.self_ms_per_solve": (self_ms("closedform.square_difference_split"), "ms"),
        "closedform.solve_by_split.self_ms_per_solve": (self_ms("closedform.solve_by_split"), "ms"),
        "closedform.closed_forms.calls_per_solve": (t.outer_closed / ops, "count"),
        "closedform.closed_forms.self_ms_per_solve": (self_ms(*CLOSED_FORMS), "ms"),
        "grim.grim_solve.calls_per_solve": (calls("grim.grim_solve") / ops, "count"),
        "grim.grim_solve.self_ms_per_solve": (self_ms("grim.grim_solve"), "ms"),
        "grim.polishes_per_root": (_ratio(t.grim_polishes, t.work.get("grim.grim_solve", 0.0)), "ratio"),
        "series.trinomial_series_root.calls_per_solve": (calls(series) / ops, "count"),
        "series.trinomial_series_root.terms_per_call": (_ratio(t.work.get(series, 0.0), calls(series)), "count"),
        "series.trinomial_series_root.self_ms_per_solve": (self_ms(series), "ms"),
        "series.trinomial_pfq_root.self_ms_per_solve": (self_ms("series.trinomial_pfq_root"), "ms"),
        "series.pfq_form_evaluate.self_ms_per_solve": (self_ms("series.pfq_form_evaluate"), "ms"),
        "numerics.pfq_eval.calls_per_solve": (calls(pfq) / ops, "count"),
        "numerics.pfq_eval.terms_per_call": (_ratio(t.work.get(pfq, 0.0), calls(pfq)), "count"),
        "numerics.pfq_eval.self_ms_per_solve": (self_ms(pfq), "ms"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main.self_ms": (_ratio(t.self_ns.get("cli.main", 0) / 1e6, cli_calls), "ms"),
    }
