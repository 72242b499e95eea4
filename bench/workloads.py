"""The operations each workload times, and the checks on their outputs.

Library operations call polysolve's public functions through module
attributes looked up at call time, so the wrappers a traced run installs
see every call. A ``cli`` operation runs ``python -m polysolve.cli solve``
in a subprocess, one at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from check import ETA, check_roots
from corpus import Op, format_coeffs

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """What one operation returned, ready to be checked against the reference."""

    ns: int
    root_sets: list[tuple[str, list[complex]]] = field(default_factory=list)
    error: str | None = None  # why the operation failed before any check
    rss_kb: int = 0
    trace: dict | None = None  # spans from a traced CLI child


class Library:
    """Runs library operations in this process."""

    def __init__(self, src: Path):
        sys.path.insert(0, str(src))
        import polysolve

        if Path(polysolve.__file__).resolve().parent != (src / "polysolve").resolve():
            raise RuntimeError(f"polysolve imported from {polysolve.__file__}, not {src}")
        self.ps = polysolve

    def prepare(self, op: Op):
        if op.kind == "trinomial":
            return self.ps.Trinomial(*op.trinomial)
        return self.ps.Polynomial(op.coeffs)

    def run(self, op: Op, arg) -> Outcome:
        ps = self.ps
        t0 = perf_counter_ns()
        try:
            if op.kind == "split":
                sets = [("split", ps.solve_by_split(arg).values())]
            elif op.kind == "grim":
                sets = [("grim", ps.grim_solve(arg).values())]
            else:
                series = [ps.trinomial_series_root(arg, k)[0] for k in range(arg.s)]
                pfq = []
                for k in range(arg.s):
                    value, status = ps.trinomial_pfq_root(arg, k).evaluate()
                    if status == "converged":
                        pfq.append(value)
                sets = [("series", series), ("pfq", pfq)]
        except Exception as exc:  # a raising operation is a failed one
            return Outcome(perf_counter_ns() - t0, error=type(exc).__name__)
        return Outcome(perf_counter_ns() - t0, sets)


class Cli:
    """Runs ``polysolve solve --json`` in a fresh interpreter per operation.

    With a trace file the child is the benchmark's own stand-in, cli_child.py,
    which imports polysolve.cli under a timer and calls main(argv).
    """

    def __init__(self, src: Path, trace_file: Path | None = None):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.trace_file = trace_file

    def prepare(self, op: Op):
        argv = ["solve", "--coeffs=" + format_coeffs(op.coeffs), "--json"]
        if self.trace_file is None:
            return [sys.executable, "-m", "polysolve.cli", *argv]
        return [sys.executable, str(HERE / "cli_child.py"), str(self.trace_file), *argv]

    def run(self, op: Op, argv) -> Outcome:
        if self.trace_file is not None:
            self.trace_file.unlink(missing_ok=True)
        t0 = perf_counter_ns()
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        with proc:
            out = proc.stdout.read()
            err = proc.stderr.read()
            # reap here rather than in Popen.wait to get the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(perf_counter_ns() - t0, rss_kb=usage.ru_maxrss)
        if self.trace_file is not None and self.trace_file.exists():
            outcome.trace = json.loads(self.trace_file.read_text())
        if proc.returncode != 0:
            outcome.error = f"exit {proc.returncode}: {err.decode()[-200:]}"
            return outcome
        try:
            doc = json.loads(out)
        except ValueError:
            outcome.error = "stdout is not JSON"
            return outcome
        outcome.root_sets = [("cli", [complex(r["re"], r["im"]) for r in doc["roots"]])]
        if doc["status"] != "ok":
            outcome.error = f"status {doc['status']}"
        return outcome


@dataclass
class OpVerdict:
    failed: bool
    verified_roots: int
    reason: str | None


def judge(op: Op, outcome: Outcome, ref) -> OpVerdict:
    """Fail an operation that raised, exited badly, or whose root sets do not
    pass the checks."""
    verified = 0
    reason = outcome.error
    for route, roots in outcome.root_sets:
        v = check_roots(roots, ref, op.coeffs, ETA[route])
        if v.ok:
            verified += len(roots)
        elif reason is None:
            if not v.complete:
                reason = f"{route}: {len(roots)} of {op.degree} roots"
            elif not v.matched:
                reason = f"{route}: root set does not match the reference"
            else:
                reason = f"{route}: Vieta sum or product off"
    if not outcome.root_sets and reason is None:
        reason = "no roots returned"
    failed = reason is not None
    return OpVerdict(failed, 0 if failed else verified, reason)
