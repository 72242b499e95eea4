"""GRIM: root finding by fixed-point iteration of the inverse dominant term.

For F(x) = sum c_i x^i the complementary part F^c(x) = -(F(x) - c_n x^n)/c_n
satisfies x^n = F^c(x) at every root, so each branch d of the n-th root
gives the iteration map

    x <- exp((Log F^c(x) + 2*pi*i*d) / n)

A factor x^m of F is split off exactly first, and its m zero roots are
reported as they are. The search starts from the Newton polygon of the
quotient (poly.newton_polygon), as MPSolve does: for each edge (i, j, u),
j - i points at radius u, at angles kept off the real axis, since a real
start keeps Newton real on a real polynomial. Each start is polished by
Laguerre steps on F / prod (x - r) over the roots r found so far, divided
out implicitly (G and H lose sum 1/(x - r) and sum 1/(x - r)^2; Maehly's
step where those overflow), so each polish finds a new root; a settled
polish stops once |F(x)| is within Horner's rounding bound,
2 n eps sum |c_i| |x|^i. The search stops at n roots. Only when the
polygon's points leave roots unfound do the (branch, seed) orbits of the
map run, from the seeds 0.01, i, -i and half the largest polygon radius,
and their limit and best points are polished in turn the same way. Since
F(x) = c_n (x^n - F^c(x)) and each step makes x^n equal the previous F^c
value up to rounding, one Horner pass of F^c per step both advances an
orbit and ranks its points by residual. Every root carries the branch
whose map fixes it, however it was found.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, repeat

from .poly import (
    ConvergenceError,
    GrimError,
    Polynomial,
    RootEntry,
    RootReport,
    _polygon_points,
    all_roots_oracle,
    eval_poly,
    is_new_root,
    newton_polygon,
    polish,
    scaled_residual,
)

_STEP_TOL = 1e-13
_MAX_MODULUS = 1e12
_TURN = 0.7  # the per-edge turn of the polygon points
_ORBIT_STEPS = 80
_POLISH_TOL = 1e-10


def _complementary(p: Polynomial) -> Polynomial:
    n = p.degree
    lead = p.coeffs[n]
    return Polynomial([-c / lead for c in p.coeffs[:n]])


def _iterate(
    rev: tuple[complex, ...], n: int, d: int, start: tuple[complex, complex, float]
) -> list[complex]:
    """Run one (branch, seed) orbit of at most _ORBIT_STEPS steps;
    candidates are the limit point and the lowest-residual iterate visited
    on the way, given once when they are the same point.

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
    for _ in range(_ORBIT_STEPS):
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


def _orbit_points(q: Polynomial):
    """The limit and best points of the orbits of every branch of q, in
    (branch, seed) order, from the seeds 0.01, i, -i and half the largest
    polygon radius of q, each as ("branch {} seed {}", (d, seed, point));
    nothing is computed before the first point is asked for."""
    fc = _complementary(q)
    rev = tuple(reversed(fc.coeffs))
    far = max(u for *_, u in newton_polygon(q)) / 2.0
    # 0.01, not 0: Log(F^c(0)) can sit on F^c's zero
    seeds = [0.01 + 0j, 1j, -1j, far + 0j]
    # Horner only, never x**n: a large seed gives an infinite residual
    # rather than an OverflowError.
    lead = abs(q.lead)
    starts = [(s, fc(s), abs(eval_poly(q, s)) / lead) for s in seeds]
    for d in range(q.degree):
        for seed, start in zip(seeds, starts):
            for point in _iterate(rev, q.degree, d, start):
                yield "branch {} seed {}", (d, seed, point)


def grim_solve(p: Polynomial) -> RootReport:
    """Find the roots of p from the points of its Newton polygon, and from
    the dominant-term orbits of every branch and the four seeds for any
    root those points miss.

    A factor x^m is split off exactly first: its m roots are reported at 0
    with residual 0, and the search runs on the quotient q. The candidate
    points are the polygon's, then, only while roots are missing, the
    orbits' in (branch, seed) order. A point within poly.is_new_root's
    radius of a root found already is skipped; any other is polished on q
    to 1e-10 by Laguerre steps with the found roots divided out implicitly
    (poly.newton_polish with settle, which also stops at Horner's rounding
    bound once settled), so a converged polish is a new root, or another
    copy of a repeated one. Each root carries its scaled residual on p and
    the branch whose map fixes it; polishes that stall go to the warnings.
    The search stops once q's degree is reached, so at most n roots come
    back; when fewer are found, the warnings end with "found k of n roots".
    """
    n = p.degree
    if n < 1:
        raise ValueError("grim_solve needs degree >= 1")
    m = next(i for i, c in enumerate(p.coeffs) if c != 0)
    zeros = [RootEntry(0j, 0.0)] * m
    q = Polynomial(p.coeffs[m:]) if m else p
    if q.degree == 0:
        return RootReport(zeros, method="grim")

    found: list[RootEntry] = []
    roots: list[complex] = []  # their values, deflated out of q
    diagnostics: list[str] = []
    # starts come as (label, (its fields..., point)), formatted on a stall
    points = zip(repeat("polygon edge ({}, {}) point {}"), _polygon_points(q, _TURN))
    for label, start in chain(points, _orbit_points(q)):
        point = start[-1]
        if not is_new_root(point, roots):
            continue  # the deflated step would start on a pole
        root, res, its, converged = polish(
            q, point, _POLISH_TOL, 80, deflate=roots, settle=True
        )
        if not converged:
            diagnostics.append(f"{label.format(*start)}: polish stalled at {res:.3e}")
            continue
        if q is not p:
            res = scaled_residual(p, root)
        # the branch whose map fixes the root: at a root Arg F^c = Arg x^n,
        # so d = round((n arg x - Arg F^c(x)) / 2 pi) mod n reads as below.
        # F^c(x) itself is not evaluated: its Horner value can be all
        # rounding error (Wilkinson's polynomial near 1).
        d = round(q.degree * cmath.phase(root) / (2.0 * math.pi)) % q.degree
        roots.append(root)
        found.append(RootEntry(root, res, branch=d, iterations=its))
        if len(roots) == q.degree:
            break

    if not found and not zeros:
        raise GrimError("no polygon point or orbit point converged", diagnostics)

    entries = zeros + found
    warnings = []
    if len(entries) < n:
        warnings = diagnostics + [f"found {len(entries)} of {n} roots"]
    return RootReport(entries, method="grim", warnings=warnings).sort()


def grim_coverage(p: Polynomial) -> tuple[int, int, list[complex]]:
    """Compare grim_solve output against the all-roots oracle.

    Returns (found, total, unmatched_oracle_roots); a root counts as found
    when some reported root lies within 1e-6 of it, relative.
    """
    try:
        got = grim_solve(p).values()
    except GrimError:
        got = []
    try:
        oracle = all_roots_oracle(p)
    except ConvergenceError as exc:
        oracle = exc.best
    unmatched: list[complex] = []
    for entry in oracle.roots:
        r = entry.root
        # in a multiple-root cluster, an excellent root of p within the
        # conditioning radius of the oracle value counts too
        if not any(
            abs(r - g) <= 1e-6 * (1.0 + abs(r))
            or (abs(r - g) <= 1e-4 * (1.0 + abs(r)) and scaled_residual(p, g) <= 1e-8)
            for g in got
        ):
            unmatched.append(r)
    total = len(oracle.roots)
    return total - len(unmatched), total, unmatched
