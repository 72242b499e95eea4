"""Reference roots computed apart from the program, with mpmath.

Run as a script it reads a JSON list of coefficient lists (constant term
first, each coefficient an [re, im] pair) on stdin and writes, for each
polynomial, its roots as [re, im, scale] triples on stdout. ``scale`` is
max(1, sum |c_k| |r|^k) / |p'(r)|: a root whose scaled residual (the
package's |p(x)| / max(1, sum |c_k| |x|^k)) is eta lies about eta * scale
from the exact root, so it sets the matching tolerance.

The benchmark runs this in its own process, outside the timed loop, so
mpmath's memory never counts toward the peak RSS of the process that
calls the program. Roots are cached in .cache/reference.json, keyed by a
hash of the exact coefficients, so each pool entry is solved once.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CACHE = HERE / ".cache" / "reference.json"
DIGITS = 50


def key(coeffs: list[list[float]]) -> str:
    return hashlib.sha256(json.dumps(coeffs).encode()).hexdigest()[:32]


def reference_roots(coeffs: list[list[float]]) -> list[list[float]]:
    import mpmath

    with mpmath.workdps(DIGITS):
        cs = [mpmath.mpc(re, im) for re, im in coeffs]
        n = len(cs) - 1
        roots = mpmath.polyroots(list(reversed(cs)), maxsteps=400, extraprec=4 * DIGITS)
        out = []
        for r in roots:
            deriv = mpmath.fsum(k * cs[k] * r ** (k - 1) for k in range(1, n + 1))
            size = mpmath.fsum(abs(cs[k]) * abs(r) ** k for k in range(n + 1))
            out.append([float(r.real), float(r.imag), float(max(1, size) / abs(deriv))])
        return out


def serve(polys: list[list[list[float]]]) -> list[list[list[float]]]:
    cache = json.loads(CACHE.read_text()) if CACHE.exists() else {}
    keys = [key(c) for c in polys]
    missing = {k: c for k, c in zip(keys, polys) if k not in cache}
    if missing:
        for k, c in missing.items():
            cache[k] = reference_roots(c)
        CACHE.parent.mkdir(exist_ok=True)
        tmp = CACHE.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(CACHE)
    return [cache[k] for k in keys]


def compute(coeff_lists) -> list[list[tuple[complex, float]]]:
    """Reference roots and error scales for each polynomial, from a
    separate process."""
    payload = json.dumps([[[c.real, c.imag] for c in coeffs] for coeffs in coeff_lists])
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=payload, capture_output=True, text=True, check=True,
    )
    raw = json.loads(done.stdout)
    return [[(complex(re, im), scale) for re, im, scale in roots] for roots in raw]


if __name__ == "__main__":
    json.dump(serve(json.loads(sys.stdin.read())), sys.stdout)
