"""GRIM: root finding by fixed-point iteration of the inverse dominant term.

For F(x) = sum c_i x^i the complementary part F^c(x) = -(F(x) - c_n x^n)/c_n
satisfies x^n = F^c(x) at every root, so each branch d of the n-th root
gives the iteration map

    x <- exp((Log F^c(x) + 2*pi*i*d) / n)

Since F(x) = c_n (x^n - F^c(x)) and each step makes x^n equal the previous
F^c value up to rounding, one Horner pass of F^c per step both advances
an orbit and ranks its points by residual. A factor x^m of F is split off exactly
first, and its m zero roots are reported as they are. The limit and best
points of the (branch, seed) orbits are taken in turn, and each is
Newton-polished with the roots found so far divided out implicitly
(Maehly's deflation), so each polish finds a new root; the search stops
at n roots.
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
    is_new_root,
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
    polish_tol: float = 1e-10

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.branches is not None and not self.branches:
            raise ValueError("branches must be nonempty")
        if self.seeds is not None and not self.seeds:
            raise ValueError("seeds must be nonempty")


def _complementary(p: Polynomial) -> Polynomial:
    n = p.degree
    lead = p.coeffs[n]
    return Polynomial([-c / lead for c in p.coeffs[:n]])


def _iterate(
    rev: tuple[complex, ...],
    n: int,
    d: int,
    start: tuple[complex, complex, float],
    iters: int,
) -> list[complex]:
    """Run one (branch, seed) orbit; candidates are the limit point and the
    lowest-residual iterate visited on the way, given once when they are
    the same point.

    Roots whose branch map is locally repelling are never limits, but the
    orbit frequently passes close to them; keeping the best visited point
    lets the Newton refinement capture those too.

    rev holds the coefficients of F^c, highest power first, and start is
    (seed, F^c(seed), |p(seed)| / |c_n|). Each step sets
    x_{k+1}^n = F^c(x_k) = v_k, and p(x) = c_n (x^n - F^c(x)), so
    |v_k - v_{k+1}| is |p(x_{k+1})| / |c_n| up to rounding: one Horner pass
    of F^c per step serves both the map and the ranking.
    """
    x, v, best_res = start
    best = x
    for _ in range(iters):
        if v == 0:
            # x^n must vanish too; candidate only if x itself is tiny
            if abs(x) < 1.0:
                break
            return [best]
        x_next = cmath.exp((cmath.log(v) + 2j * math.pi * d) / n)
        if not (abs(x_next) < _MAX_MODULUS):
            return [best]
        v_next: complex = 0.0
        for c in rev:
            v_next = v_next * x_next + c
        res = abs(v - v_next)
        if res < best_res:
            best, best_res = x_next, res
        x_prev, x, v = x, x_next, v_next
        if abs(x - x_prev) <= _STEP_TOL * (1.0 + abs(x)):
            break
    return [x] if x == best else [x, best]


def grim_solve(p: Polynomial, cfg: GrimConfig | None = None) -> RootReport:
    """Find the roots of p from the dominant-term orbits over all branches
    and seeds.

    A factor x^m is split off exactly first: its m roots are reported at 0
    with residual 0, and the iteration runs on the quotient q. The orbits'
    candidate points are taken in (branch, seed) order. A point within
    poly.is_new_root's radius of a root found already is skipped; any other
    is Newton-polished on q to cfg.polish_tol with the found roots deflated
    (poly.newton_polish), so a converged polish is a new root, or another
    copy of a repeated one. Each root carries its scaled residual on p;
    polishes that stall go to the warnings. The search stops once q's
    degree is reached, so at most n roots come back; when fewer are found,
    the warnings end with "found k of n roots".
    """
    cfg = cfg if cfg is not None else GrimConfig()
    n = p.degree
    if n < 1:
        raise ValueError("grim_solve needs degree >= 1")
    m = next(i for i, c in enumerate(p.coeffs) if c != 0)
    zeros = [RootEntry(0j, 0.0)] * m
    q = Polynomial(p.coeffs[m:]) if m else p
    if q.degree == 0:
        return RootReport(zeros, method="grim")
    fc = _complementary(q)
    rev = tuple(reversed(fc.coeffs))
    branches = cfg.branches if cfg.branches is not None else list(range(q.degree))
    if cfg.seeds is not None:
        seeds = list(cfg.seeds)
    else:
        rho = cauchy_bound(q)
        seeds = [0.01 + 0j, 1j, -1j, rho / 2.0 + 0j]
    # Log(F^c(0.01)) can sit on F^c's zero; the 0.01 default replaces 0.
    seeds = [s if s != 0 else 0.01 + 0j for s in seeds]
    # Horner only, never x**n: a large seed gives an infinite residual
    # rather than an OverflowError.
    lead = abs(q.lead)
    starts = [(complex(s), fc(s), abs(eval_poly(q, s)) / lead) for s in seeds]

    found: list[RootEntry] = []
    roots: list[complex] = []  # their values, deflated out of q
    diagnostics: list[str] = []
    points = (
        (d, seed, point)
        for d in branches
        for seed, start in zip(seeds, starts)
        for point in _iterate(rev, q.degree, d, start, cfg.iters)
    )
    for d, seed, point in points:
        if not is_new_root(point, roots):
            continue  # the deflated step would start on a pole
        root, res, its, converged = polish(
            q, point, cfg.polish_tol, 80, deflate=roots, settle=True
        )
        if not converged:
            diagnostics.append(
                f"branch {d} seed {seed}: polish stalled at {res:.3e}"
            )
            continue
        if q is not p:
            res = scaled_residual(p, root)
        roots.append(root)
        found.append(RootEntry(root, res, branch=d, iterations=its))
        if len(roots) == q.degree:
            break

    if not found and not zeros:
        raise GrimError("no (branch, seed) run converged", diagnostics)

    entries = zeros + found
    warnings = []
    if len(entries) < n:
        warnings = diagnostics + [f"found {len(entries)} of {n} roots"]
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
