"""Traced stand-in for ``python -m polysolve.cli``.

Usage: cli_child.py TRACE_FILE ARGV...

Imports polysolve.cli under a timer, installs the span wrappers, calls
main(ARGV) and writes the import time and the spans to TRACE_FILE as JSON.
The exit code is main's.
"""

import json
import sys
from time import perf_counter_ns

t0 = perf_counter_ns()
import polysolve.cli  # noqa: E402

import_ns = perf_counter_ns() - t0

from spans import Tracer  # noqa: E402


def run(trace_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = polysolve.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump({"import_ns": import_ns, **tracer.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
