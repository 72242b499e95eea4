"""GRIM: root finding by fixed-point iteration of the inverse dominant term.

For F(x) = sum c_i x^i the complementary part F^c(x) = -(F(x) - c_n x^n)/c_n
satisfies x^n = F^c(x) at every root, so each branch d of the n-th root
gives the iteration map

    x <- exp((Log F^c(x) + 2*pi*i*d) / n)

Limits over all (branch, seed) pairs are pooled, Newton-polished,
deduplicated and reported with residuals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .poly import (
    ConvergenceError,
    Polynomial,
    RootEntry,
    RootReport,
    all_roots_oracle,
    cauchy_bound,
    eval_poly,
    polish,
    scaled_residual,
)

_STEP_TOL = 1e-13
_MAX_MODULUS = 1e12


class GrimError(ArithmeticError):
    """No (branch, seed) run produced a usable root."""

    def __init__(self, message: str, diagnostics: list[str]):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class GrimConfig:
    branches: list[int] | None = None  # default 0..n-1
    seeds: list[complex] | None = None  # default {0.01, i, -i, rho/2}
    iters: int = 80
    dedup_tol: float = 1e-6
    polish_tol: float = 1e-10

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.branches is not None and not self.branches:
            raise ValueError("branches must be nonempty")


def _complementary(p: Polynomial) -> Polynomial:
    n = p.degree
    lead = p.coeffs[n]
    return Polynomial([-c / lead for c in p.coeffs[:n]])


def _iterate(
    fc: Polynomial, p: Polynomial, n: int, d: int, seed: complex, iters: int
) -> list[complex]:
    """Run one (branch, seed) orbit; candidates are the limit point and the
    lowest-residual iterate visited on the way.

    Roots whose branch map is locally repelling are never limits, but the
    orbit frequently passes close to them; keeping the best visited point
    lets the Newton refinement capture those too.
    """
    x = complex(seed)
    best = x
    best_res = abs(eval_poly(p, x))
    for _ in range(iters):
        v = fc(x)
        if v == 0:
            # x^n must vanish too; candidate only if x itself is tiny
            if abs(x) < 1.0:
                return [x, best]
            return [best]
        x_next = cmath.exp((cmath.log(v) + 2j * math.pi * d) / n)
        if not (abs(x_next) < _MAX_MODULUS):
            return [best]
        res = abs(eval_poly(p, x_next))
        if res < best_res:
            best, best_res = x_next, res
        if abs(x_next - x) <= _STEP_TOL * (1.0 + abs(x_next)):
            return [x_next, best]
        x = x_next
    return [x, best]


def grim_solve(p: Polynomial, cfg: GrimConfig | None = None) -> RootReport:
    """Pool the dominant-term iteration over all branches and seeds.

    Every reported root is Newton-polished to cfg.polish_tol; candidates
    that fail polishing are dropped into the warnings rather than reported.
    When fewer than n roots survive, the warnings end with "found k of n
    roots".
    """
    cfg = cfg if cfg is not None else GrimConfig()
    n = p.degree
    if n < 1:
        raise ValueError("grim_solve needs degree >= 1")
    fc = _complementary(p)
    branches = cfg.branches if cfg.branches is not None else list(range(n))
    if cfg.seeds is not None:
        seeds = list(cfg.seeds)
    else:
        rho = cauchy_bound(p)
        seeds = [0.01 + 0j, 1j, -1j, rho / 2.0 + 0j]
    # Log(F^c(0.01)) can sit on F^c's zero; the 0.01 default replaces 0.
    seeds = [s if s != 0 else 0.01 + 0j for s in seeds]

    candidates: list[tuple[complex, float, int, int]] = []
    diagnostics: list[str] = []
    for d in branches:
        for seed in seeds:
            points = _iterate(fc, p, n, d, seed, cfg.iters)
            if not points:
                diagnostics.append(f"branch {d} seed {seed}: diverged")
                continue
            for point in points:
                root, res, its, converged = polish(
                    p, point, tol=cfg.polish_tol, max_iter=80
                )
                if not converged:
                    diagnostics.append(
                        f"branch {d} seed {seed}: polish stalled at {res:.3e}"
                    )
                    continue
                candidates.append((root, res, d, its))

    if not candidates:
        raise GrimError("no (branch, seed) run converged", diagnostics)

    candidates.sort(key=lambda cand: (cand[1], cand[0].real, cand[0].imag))
    kept: list[tuple[complex, float, int, int]] = []
    for cand in candidates:
        if all(abs(cand[0] - other[0]) > cfg.dedup_tol for other in kept):
            kept.append(cand)
    entries = [
        RootEntry(root, res, branch=d, iterations=its)
        for root, res, d, its in kept
    ]
    warnings = []
    if len(kept) < n:
        warnings = diagnostics + [f"found {len(kept)} of {n} roots"]
    return RootReport(entries, method="grim", warnings=warnings).sort()


def grim_coverage(
    p: Polynomial, cfg: GrimConfig | None = None, match_tol: float = 1e-6
) -> tuple[int, int, list[complex]]:
    """Compare grim_solve output against the all-roots oracle.

    Returns (found, total, unmatched_oracle_roots); a root counts as found
    when some reported root lies within match_tol of it.
    """
    try:
        report = grim_solve(p, cfg)
        got = report.values()
    except GrimError:
        got = []
    try:
        oracle = all_roots_oracle(p)
    except ConvergenceError as exc:
        oracle = exc.best
    unmatched: list[complex] = []
    for entry in oracle.roots:
        tol = match_tol * (1.0 + abs(entry.root))
        covered = False
        for g in got:
            if abs(entry.root - g) <= tol:
                covered = True
                break
            # multiple-root clusters: accept an excellent root of p that sits
            # within the conditioning radius of the oracle value
            if (
                abs(entry.root - g) <= 1e-4 * (1.0 + abs(entry.root))
                and scaled_residual(p, g) <= 1e-8
            ):
                covered = True
                break
        if not covered:
            unmatched.append(entry.root)
    total = len(oracle.roots)
    return total - len(unmatched), total, unmatched
