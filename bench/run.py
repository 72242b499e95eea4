"""polysolve benchmark: seeded workloads over the solve routes and the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: even_split, trinomial_hyper, general_grim, cli_auto (see
corpus.py and README.md). One caller runs a closed loop: each operation
starts when the previous one returns, and a run repeats whole rounds of
the same operations until S seconds have passed and at least 100 were
timed. Every output is checked against mpmath reference roots and Vieta's
formulas. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
untraced, the per-layer metrics from spans when traced.

The host this was written on changes speed by up to a third for
milliseconds to minutes at a time, so end-to-end times are reported at a
reference host speed: a fixed pure-Python kernel that does not touch
polysolve is timed after every operation, and each operation's time is
multiplied by CALIBRATION_REF_NS over the median of the three kernel times
around it (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import corpus
import reference
from spans import Tracer, layer_metrics
from workloads import Cli, Library, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
MIN_SAMPLES = 100  # so that at least 10 samples lie above the p90
SETUP_REPEATS = 7  # bare-interpreter samples, and import samples before the loop
SETUP_PER_ROUND = 8  # import samples after each round, spread over the run
WARMUP_OPS = 3
# median time of calibration_kernel() on the reference host (2 vCPU,
# Python 3.11.7): the unit the end-to-end times are scaled to
CALIBRATION_REF_NS = 770_000

IMPORT_TIMER = (
    "import time; t = time.perf_counter_ns(); import {module}; "
    "print(time.perf_counter_ns() - t)"
)


def fresh_import_ns(module: str, count: int) -> list[int]:
    """Import times of ``module`` in ``count`` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_TIMER.format(module=module)]
    return [
        int(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout)
        for _ in range(count)
    ]


def bare_interpreter_ns() -> list[int]:
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(perf_counter_ns() - t0)
    return samples


_CAL_COEFFS = [complex(k % 7 - 3, k % 5 - 2) for k in range(24)]
_CAL_POINTS = [complex(0.01 * k, -0.02 * k) for k in range(300)]


def calibration_kernel() -> complex:
    """Fixed complex Horner work, the same on every commit."""
    acc = 0j
    for z in _CAL_POINTS:
        v = 0j
        for c in reversed(_CAL_COEFFS):
            v = v * z + c
        acc += v / (1 + abs(v))
    return acc


def calibration_ns() -> int:
    t0 = perf_counter_ns()
    calibration_kernel()
    return perf_counter_ns() - t0


def at_reference_speed(durations: list[int], calibration: list[int]) -> list[float]:
    """Each duration scaled by the host speed around it: the median of the
    kernel times just before it, just after it and after the next one."""
    n = len(calibration)
    return [
        d * CALIBRATION_REF_NS / statistics.median(calibration[max(0, i - 1):min(n, i + 2)])
        for i, d in enumerate(durations)
    ]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polysolve" / "__init__.py").is_file():
        print(f"error: no polysolve sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and every child it starts, so that the
    # calibration kernel runs where the operations run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    traced = bool(args.trace)
    is_cli = args.workload == "cli_auto"

    ops = corpus.ROUNDS[args.workload](args.seed)
    refs = reference.compute([op.coeffs for op in ops])
    module = "polysolve.cli" if is_cli else "polysolve"
    fresh_import_ns(module, 1)  # fills the bytecode cache
    import_ns = fresh_import_ns(module, SETUP_REPEATS)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    tracer = Tracer() if traced else None
    if is_cli:
        runner = Cli(SRC, OUT / f"child-{tag}.json" if traced else None)
    else:
        runner = Library(SRC)
    prepared = [runner.prepare(op) for op in ops]
    for op, arg in list(zip(ops, prepared))[:WARMUP_OPS]:
        runner.run(op, arg)
    if tracer is not None and not is_cli:
        tracer.install()

    durations: list[int] = []
    calibration: list[int] = []
    failed = unexpected = verified = rounds = 0
    rss_kb = 0
    reasons: Counter[str] = Counter()
    child_import_ns: list[int] = []
    t_start = perf_counter_ns()
    deadline = t_start + int(args.seconds * 1e9)
    while rounds == 0 or perf_counter_ns() < deadline or len(durations) < MIN_SAMPLES:
        outcomes = []
        for op, arg in zip(ops, prepared):
            outcome = runner.run(op, arg)
            calibration.append(calibration_ns())
            if outcome.trace is not None:
                child_import_ns.append(outcome.trace["import_ns"])
                tracer.extend(outcome.trace)
            outcomes.append(outcome)
        # checks run between rounds, outside every operation's timer
        for op, outcome, ref in zip(ops, outcomes, refs):
            durations.append(outcome.ns)
            rss_kb = max(rss_kb, outcome.rss_kb)
            v = judge(op, outcome, ref)
            verified += v.verified_roots
            if v.failed:
                failed += 1
                reasons[f"{op.pool} input, {v.reason}"] += 1
                # grim_solve's known faults fail GRIM inputs; anything else
                # failing means a route that should work gave a wrong answer
                unexpected += op.pool != "grim"
        rounds += 1
        import_ns += fresh_import_ns(module, SETUP_PER_ROUND)
    if tracer is not None:
        tracer.uninstall()

    attempted = len(durations)
    times = at_reference_speed(durations, calibration)
    speed = statistics.median(calibration) / CALIBRATION_REF_NS
    busy_s = sum(times) / 1e9
    solves_per_s = (attempted - failed) / busy_s
    if not is_cli:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"ops_per_round={len(ops)} attempted={attempted} failed={failed} "
          f"(outside GRIM inputs {unexpected}) host_time_factor={speed:.4f} "
          f"solves_per_s={solves_per_s:.6g}")
    for reason, count in reasons.most_common():
        print(f"#   failed x{count}: {reason}")

    if traced:
        interp_ms = statistics.median(bare_interpreter_ns()) / 1e6
        imp_ms = statistics.median(child_import_ns if is_cli else import_ns) / 1e6
        values = layer_metrics(tracer, attempted, interp_ms, imp_ms)
        tracer.dump(OUT / f"trace-{tag}.json.gz")
    else:
        values = {
            "solve_ms_p50": (statistics.median(times) / 1e6, "ms"),
            "solve_ms_p90": (p90(times) / 1e6, "ms"),
            "solves_per_s": (solves_per_s, "1/s"),
            "roots_per_s": (verified / busy_s, "1/s"),
            "setup_s": (statistics.median(import_ns) / 1e9 / speed, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    raw = {"durations_ns": durations, "calibration_ns": calibration, "import_ns": import_ns}
    (OUT / f"run-{tag}.json").write_text(json.dumps({**result, **raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
