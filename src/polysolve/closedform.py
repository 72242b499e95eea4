"""Closed-form solvers for degrees 2-4 built on difference-of-squares (and
difference-of-cubes) identities, plus the numeric square-difference splitter
for monic even degrees 6, 8, 10 and the recursive solve-by-split driver.

The splitter writes a monic even-degree F as (Q-P)(Q+P) with monic
half-degree factors, found by Newton's method on the factor coefficients
themselves. The result is also given in the paper's parameterization:
writing m_j for half the coefficient sum at slot j and O_j for the
coefficient product, the factor coefficients are w±_j = m_j ± R_j with
R_j = sqrt(m_j^2 - O_j), and the free cross-sum corrections L_j close the
coefficient matches of the product.
"""

from __future__ import annotations

import cmath
import math
import random

from .poly import (
    ConvergenceError,
    DegreeError,
    Polynomial,
    RootEntry,
    RootReport,
    _Record,
    lu_solve,
    newton_polygon,
    polish,
    poly_from_roots,
    principal_pow,
    scaled_residual,
)


def _roots_report(p: Polynomial, roots: list[tuple[complex, int]], method: str) -> RootReport:
    """The report of a closed form's (root, branch) pairs, each root after
    a short Newton cleanup on p, which also gives its residual. The cleanup
    restores the digits a formula loses to cancellation (a near-degenerate
    quartic resolvent, say) and returns at once a root that is already
    clean. A cleanup that stalls keeps its best iterate and warns
    ``root j: cleanup stalled at residual r``, j the branch, unless the
    root is not finite (an overflowed formula), which cross_check names."""
    entries = []
    warnings = []
    for r, b in roots:
        root, res, _, converged = polish(p, r, tol=1e-13, max_iter=8)
        if not converged and cmath.isfinite(root):
            warnings.append(f"root {b}: cleanup stalled at residual {res:.3e}")
        entries.append(RootEntry(root, res, branch=b))
    return RootReport(entries, method=method, warnings=warnings).sort()


def solve_quadratic(p: Polynomial) -> RootReport:
    """Roots of a degree-2 polynomial from the w± split of x^2 + c1 x + c0.

    After monic normalization the two linear factors are x + w± with
    w± = c1/2 ± sqrt(c1^2/4 - c0); the roots are -w±.
    """
    if p.degree != 2:
        raise DegreeError("solve_quadratic expects degree 2")
    q = p.monic()
    x_plus, x_minus = _quadratic_roots(q.coeffs[0], q.coeffs[1])
    return _roots_report(p, [(x_plus, 0), (x_minus, 1)], "closed-quadratic")


def _quadratic_roots(c0: complex, c1: complex) -> tuple[complex, complex]:
    """The roots -w+, -w- of x^2 + c1 x + c0, w± = c1/2 ± sqrt(c1^2/4 - c0)."""
    r = cmath.sqrt(c1 * c1 / 4.0 - c0)
    w_plus = c1 / 2.0 + r
    w_minus = c1 / 2.0 - r
    # w+ w- = c0 exactly: recover the cancellation-prone branch from the
    # product so a tiny root keeps its digits
    if abs(w_plus) >= abs(w_minus):
        if w_plus != 0:
            w_minus = c0 / w_plus
    elif w_minus != 0:
        w_plus = c0 / w_minus
    return -w_plus, -w_minus


def _depress_cubic(p: Polynomial) -> tuple[complex, complex, complex, complex]:
    """Reduce a3 x^3 + a2 x^2 + a1 x + a0 to t^3 + alpha t + beta.

    Uses the substitution t = a3 x + a2/3, so each root maps back through
    x = (t - a2/3)/a3.
    """
    a0, a1, a2, a3 = p.coeffs
    alpha = a1 * a3 - a2 * a2 / 3.0
    beta = a0 * a3 * a3 + 2.0 * a2**3 / 27.0 - a1 * a2 * a3 / 3.0
    return alpha, beta, a2, a3


def solve_cubic(p: Polynomial) -> RootReport:
    """Roots of a degree-3 polynomial via the cube-difference reduction.

    Depresses to t^3 + alpha t + beta, solves z^2 + beta z - alpha^3/27 = 0,
    takes k1 = cbrt(z) with k2 chosen so k1 k2 = -alpha/3, and deflates for
    the remaining quadratic cofactor. Real coefficients with
    (beta/2)^2 + (alpha/3)^3 < 0 go through the trigonometric branch, which
    yields the three real roots directly. Either way, the two roots other
    than the largest are then taken again from its cofactor in x.
    """
    if p.degree != 3:
        raise DegreeError("solve_cubic expects degree 3")
    alpha, beta, a2, a3 = _depress_cubic(p)
    disc = (beta / 2.0) ** 2 + (alpha / 3.0) ** 3

    is_real = all(abs(c.imag) == 0 for c in p.coeffs)
    ts: list[complex]
    if is_real and disc.real < 0 and disc.imag == 0:
        tau = math.sqrt(-((alpha.real / 3.0) ** 3))
        theta = math.acos(max(-1.0, min(1.0, -beta.real / 2.0 / tau)))
        amp = 2.0 * math.sqrt(-alpha.real / 3.0)
        ts = [complex(amp * math.cos((theta + 2.0 * math.pi * k) / 3.0)) for k in range(3)]
    else:
        sq = cmath.sqrt(disc)
        # the two z-branches multiply to -(alpha/3)^3: cube-root the larger
        # one and recover the partner from the pairing k1 k2 = -alpha/3
        z_plus = -beta / 2.0 + sq
        z_minus = -beta / 2.0 - sq
        k1 = principal_pow(z_plus if abs(z_plus) >= abs(z_minus) else z_minus, 1.0 / 3.0)
        k2 = 0j if k1 == 0 else -alpha / (3.0 * k1)
        t0 = k1 + k2
        # quadratic cofactor of (t - t0) in t^3 + alpha t + beta
        b1 = t0
        b0 = t0 * t0 + alpha
        rr = cmath.sqrt(b1 * b1 / 4.0 - b0)
        ts = [t0, -b1 / 2.0 + rr, -b1 / 2.0 - rr]

    xs = [(t - a2 / 3.0) / a3 for t in ts]
    # The shift by a2/3 costs the smaller roots their digits when the roots
    # spread over many scales, while the largest root r keeps them. So the
    # two others come from the cofactor x^2 + e1 x + e0 of x - r, by the
    # Vieta relations a0 = -a3 r e0 and a1 = a3 (e0 - r e1), which divide
    # by r rather than subtract near it.
    big = max(range(3), key=lambda i: abs(xs[i]))
    r = xs[big]
    if r != 0:
        a0, a1 = p.coeffs[0], p.coeffs[1]
        e0 = -a0 / (a3 * r)
        s, u = _quadratic_roots(e0, (e0 - a1 / a3) / r)
        i, j = (m for m in range(3) if m != big)
        # each cofactor root takes the branch of the formula root nearest it
        if abs(s - xs[i]) + abs(u - xs[j]) > abs(s - xs[j]) + abs(u - xs[i]):
            s, u = u, s
        xs[i], xs[j] = s, u
    return _roots_report(p, [(x, k) for k, x in enumerate(xs)], "closed-cubic")


def _quartic_w_pairs(
    c: tuple[complex, ...], omega1: complex, sigma: float
) -> tuple[complex, complex, complex, complex]:
    """w±_{2,1}, w±_{2,0} for a monic quartic at resolvent value omega1."""
    _, c1, c2, c3, _ = c
    a = c3 / 2.0
    b = cmath.sqrt(a * a - omega1)
    cc = (c2 - omega1) / 2.0
    d = sigma * cmath.sqrt(cc * cc - c[0])
    return a + b, a - b, cc + d, cc - d


def _resolvent_cubic(c: tuple[complex, ...]) -> Polynomial:
    """Cubic in Omega_1 obtained by squaring the cross-term identity
    w+_{2,0} w-_{2,1} + w-_{2,0} w+_{2,1} = c1 of a monic quartic."""
    _, c1, c2, c3, _ = c
    c0 = c[0]
    return Polynomial(
        [
            c1 * c1 + c0 * c3 * c3 - c1 * c2 * c3,
            c2 * c2 + c1 * c3 - 4.0 * c0,
            -2.0 * c2,
            1.0,
        ]
    )


def _quartic_halves(
    c: tuple[complex, ...],
) -> tuple[float, list[complex], list[complex]]:
    """The monic quadratic pair (w+_{2,0}, w+_{2,1}, 1), (w-_{2,0}, w-_{2,1}, 1)
    of a monic quartic with the smallest largest coefficient mismatch over
    the resolvent roots and both signs of the inner radical (the first such
    pair on ties), as (mismatch, w+, w-)."""
    best = None
    for entry in solve_closed(_resolvent_cubic(c)).roots:
        for sigma in (1.0, -1.0):
            w1p, w1m, w0p, w0m = _quartic_w_pairs(c, entry.root, sigma)
            wp = [w0p, w1p, 1.0 + 0j]
            wm = [w0m, w1m, 1.0 + 0j]
            err = _reconstruction_residual(c, wp, wm)
            if best is None or err < best[0]:
                best = (err, wp, wm)
    return best


def solve_quartic(p: Polynomial) -> RootReport:
    """Roots of a degree-4 polynomial by splitting into two quadratics.

    Solves the Omega_1 resolvent cubic, then assembles the factor pair
    (x^2 + w+_{2,1} x + w+_{2,0})(x^2 + w-_{2,1} x + w-_{2,0}). Both the
    resolvent root and the sign of the inner radical are picked by the
    reconstruction residual, squaring having introduced both ambiguities.
    """
    if p.degree != 4:
        raise DegreeError("solve_quartic expects degree 4")
    _, wp, wm = _quartic_halves(p.monic().coeffs)
    roots: list[tuple[complex, int]] = []
    for idx, (w0, w1, _) in enumerate((wp, wm)):
        rr = cmath.sqrt(w1 * w1 / 4.0 - w0)
        roots.append((-w1 / 2.0 + rr, 2 * idx))
        roots.append((-w1 / 2.0 - rr, 2 * idx + 1))
    return _roots_report(p, roots, "closed-quartic")


class SquareDifferenceSplit(_Record):
    """Monic factor pair (Q-P, Q+P) of an even-degree polynomial.

    omega[j] is the coefficient product of slot j (omega[0] = c0 and the
    leading omega[n/2] = 1 are fixed); l_vars are the free cross-sum
    corrections feeding the coefficient-sum chain; w_minus/w_plus are the
    full monic coefficient lists of the two factors.
    """

    __slots__ = ("omega", "l_vars", "w_plus", "w_minus", "residual")

    def __init__(
        self,
        omega: list[complex],
        l_vars: list[complex],
        w_plus: list[complex],
        w_minus: list[complex],
        residual: float,
    ):
        self.omega = omega
        self.l_vars = l_vars
        self.w_plus = w_plus
        self.w_minus = w_minus
        self.residual = residual

    def factors(self) -> tuple[Polynomial, Polynomial]:
        return Polynomial(self.w_minus), Polynomial(self.w_plus)


def _product_coeffs(wp: list[complex], wm: list[complex]) -> list[complex]:
    h = len(wp) - 1
    out = [0j] * (2 * h + 1)
    for i, a in enumerate(wp):
        for j, b in enumerate(wm):
            out[i + j] += a * b
    return out


def _reconstruction_residual(c: tuple[complex, ...], wp, wm) -> float:
    prod = _product_coeffs(wp, wm)
    return max(abs(a - b) for a, b in zip(prod, c))


def _divide(s: list[complex], u: list[complex]) -> tuple[list[complex], list[complex]]:
    """Quotient and remainder of s by the monic u, coefficient lists with
    the constant first."""
    h = len(u) - 1
    s = list(s)
    quotient = [0j] * (len(s) - h)
    for k in range(len(s) - 1, h - 1, -1):
        t = quotient[k - h] = s[k]
        for i in range(h):
            s[k - h + i] -= t * u[i]
    return quotient, s[:h]


def _bezout_step(
    u: list[complex], v: list[complex], r: list[complex]
) -> tuple[list[complex], list[complex]] | None:
    """du, dv of degree below h with v du + u dv = r, for monic u and v of
    degree h and r of degree below 2h; None when u and v share a root.

    Modulo u the system is v du = r, and v = v - u there, so du solves the
    h x h system whose column j is x^j (v - u) mod u; then u divides
    r - v du exactly, and the quotient is dv. The half with the smaller
    coefficients plays u, since dividing by a half with large roots
    amplifies rounding.
    """
    if max(map(abs, v)) < max(map(abs, u)):
        step = _bezout_step(v, u, r)
        return None if step is None else (step[1], step[0])
    h = len(u) - 1
    cols = [[v[i] - u[i] for i in range(h)]]
    for _ in range(h - 1):
        cols.append(_divide([0j] + cols[-1], u)[1])
    _, du = lu_solve([list(row) for row in zip(*cols)], _divide(r, u)[1])
    if du is None:
        return None
    rest = list(r)
    for i, a in enumerate(v):
        for j, b in enumerate(du):
            rest[i + j] -= a * b
    return du, _divide(rest, u)[0]


# the most Newton steps of one _factor_newton run
_FACTOR_STEPS = 80


def _factor_newton(
    c: tuple[complex, ...], wp0: list[complex], wm0: list[complex]
) -> tuple[list[complex], list[complex], float]:
    """Damped Newton on the coefficients of the two monic halves.

    The unknowns are the 2h non-leading coefficients of both halves u and
    v, the equations the n non-leading coefficient matches of their product
    with c (a multi-factor Bairstow iteration). The Newton step solves
    v du + u dv = c - u v, the Sylvester system of the pair, by an h x h
    solve (_bezout_step); steps halve (up to 20 times) whenever the largest
    coefficient mismatch would grow. Returns both halves, leading 1
    appended, and that mismatch.
    """
    n = len(c) - 1
    h = n // 2

    def f(uv: list[complex]) -> list[complex]:
        prod = _product_coeffs(uv[:h] + [1.0 + 0j], uv[h:] + [1.0 + 0j])
        return [prod[i] - c[i] for i in range(n)]

    z = wp0[:h] + wm0[:h]
    fz = f(z)
    fnorm = max(abs(x) for x in fz)
    for _ in range(_FACTOR_STEPS):
        if fnorm < 1e-13:
            break
        step = _bezout_step(z[:h] + [1.0 + 0j], z[h:] + [1.0 + 0j], [-x for x in fz])
        if step is None:
            break
        delta = step[0] + step[1]
        scale = 1.0
        improved = False
        for _ in range(20):
            cand = [z[i] + scale * delta[i] for i in range(n)]
            fc = f(cand)
            fn = max(abs(x) for x in fc)
            if fn < fnorm:
                z, fz, fnorm = cand, fc, fn
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return z[:h] + [1.0 + 0j], z[h:] + [1.0 + 0j], fnorm


def _polygon_halves(F: Polynomial) -> list[list[complex]]:
    """Start halves from the Newton polygon of F. Each edge (i, j, u) gives
    the j - i roots of its binomial c_j x^(j-i) + c_i, all at radius u,
    turned by 0.1 rad so that a real F does not start from a conjugate
    pair. The m zeros of x^m dividing F come first, then the edges from the
    smallest radius up, each edge's points by angle; the first h points are
    the roots of one monic half, the rest those of the other. When x^h
    divides F the halves are the exact pair x^h and F / x^h: both halves
    would hold a zero, where the Newton step is singular."""
    c = F.coeffs
    h = F.degree // 2
    if not any(c[:h]):
        return [[0j] * h + [1 + 0j], list(c[h:])]
    points = []
    for i, j, u in newton_polygon(F):
        base = cmath.phase(-c[i]) - cmath.phase(c[j])
        turns = [(base + 2.0 * math.pi * k) / (j - i) + 0.1 for k in range(j - i)]
        points += sorted((u * cmath.exp(1j * t) for t in turns), key=cmath.phase)
    points[:0] = [0j] * (F.degree - len(points))
    return [list(poly_from_roots(half).coeffs) for half in (points[:h], points[h:])]


def _split_from_halves(
    c: tuple[complex, ...], wp: list[complex], wm: list[complex]
) -> SquareDifferenceSplit:
    """Express a factor pair in the omega / l_vars / w± parameterization."""
    n = len(c) - 1
    h = n // 2
    omega = [wp[j] * wm[j] for j in range(h + 1)]
    omega[0] = c[0]  # the designated constant slot; product matches to roundoff
    l_vars = [0j] * max(0, h - 2)
    for j in range(h - 3, -1, -1):
        top = wp[j] + wm[j]
        correction = c[h + j] - top
        if (h + j) % 2 == 0:
            correction = correction - omega[(h + j) // 2]
        l_vars[j] = correction
    return SquareDifferenceSplit(
        omega=omega,
        l_vars=l_vars,
        w_plus=wp,
        w_minus=wm,
        residual=_reconstruction_residual(c, wp, wm),
    )


# the split's largest coefficient mismatch, and its starts for degrees 6-10
_SPLIT_TARGET = 1e-9
_SPLIT_STARTS = 64


def square_difference_split(F: Polynomial) -> SquareDifferenceSplit:
    """Split a monic polynomial of even degree 4..10 as (Q-P)(Q+P).

    Degree 4 goes through the closed-form resolvent cubic, refined in factor
    space when a degenerate resolvent costs digits. Degrees 6-10 run the
    factor-coefficient Newton iteration from up to _SPLIT_STARTS starts,
    returning the first split whose largest coefficient mismatch is at most
    _SPLIT_TARGET. The first start takes its halves' roots from the
    Newton polygon of F (_polygon_halves) and almost always suffices; the
    others are seeded Gaussian coefficients. The result carries the
    paper's omega / l_vars parameterization of the factor pair. The split
    always exists over C; failure to reach the target indicates iteration
    limits and raises ConvergenceError with the best split attached.
    """
    n = F.degree
    if n not in (4, 6, 8, 10):
        raise DegreeError("square_difference_split expects even degree 4..10")
    if F.lead != 1:
        raise ValueError("square_difference_split expects a monic polynomial")
    c = F.coeffs
    h = n // 2

    if n == 4:
        err, wp, wm = _quartic_halves(c)
        if err > _SPLIT_TARGET:
            # degenerate resolvents halve the attainable digits; refine
            wp, wm, _ = _factor_newton(c, wp, wm)
        return _split_from_halves(c, wp, wm)

    rng = random.Random(0xD1FF ^ n)
    best_split: SquareDifferenceSplit | None = None
    wp0, wm0 = _polygon_halves(F)
    for _ in range(_SPLIT_STARTS):
        wp, wm, _ = _factor_newton(c, wp0, wm0)
        split = _split_from_halves(c, wp, wm)
        if best_split is None or split.residual < best_split.residual:
            best_split = split
        if best_split.residual <= _SPLIT_TARGET:
            return best_split
        wp0 = [complex(rng.gauss(0.0, 0.8), rng.gauss(0.0, 0.8)) for _ in range(h)]
        wm0 = [complex(rng.gauss(0.0, 0.8), rng.gauss(0.0, 0.8)) for _ in range(h)]

    raise ConvergenceError(
        f"square-difference split stalled at residual {best_split.residual:.3e}",
        best_split,
    )


def solve_closed(p: Polynomial) -> RootReport:
    """Roots of a polynomial of degree at most 4 by the closed form of its
    degree; a constant has none. Higher degrees raise DegreeError. A closed
    form whose intermediate powers overflow (say (alpha/3)^3 of a cubic
    with a 1e200 coefficient) raises ConvergenceError."""
    if p.degree == 0:
        return RootReport([], method="closed-constant")
    if p.degree == 1:
        root = -p.coeffs[0] / p.coeffs[1]
        return RootReport(
            [RootEntry(root, scaled_residual(p, root))], method="closed-linear"
        )
    solver = {2: solve_quadratic, 3: solve_cubic, 4: solve_quartic}.get(p.degree)
    if solver is None:
        raise DegreeError("closed method needs degree <= 4")
    try:
        return solver(p)
    except OverflowError as exc:
        raise ConvergenceError(f"closed form overflowed: {exc}") from exc


def solve_by_split(F: Polynomial) -> RootReport:
    """Roots of a monic even-degree polynomial (n <= 10) via splitting.

    Each monic half is solved by the closed-form solver of its degree;
    degree-5 halves go through the dominant-term iteration (GRIM). A root
    that GRIM leaves behind leaves the report short, which
    pipeline.cross_check reads as partial. All roots are polished against
    F, to 1e-11, before reporting.
    """
    from .grim import grim_solve

    split = square_difference_split(F)
    warnings: list[str] = []
    raw: list[tuple[complex, int]] = []
    for which, factor in enumerate(split.factors()):
        deg = factor.degree
        if deg <= 4:
            roots = solve_closed(factor).values()
        elif deg == 5:
            rep = grim_solve(factor)
            warnings.extend(f"factor {which}: {w}" for w in rep.warnings)
            roots = rep.values()
        else:
            raise DegreeError(f"unexpected factor degree {deg}")
        raw.extend((root, which) for root in roots)

    entries: list[RootEntry] = []
    for root, which in raw:
        x, res, its, converged = polish(F, root, tol=1e-11, max_iter=80)
        if not converged:
            warnings.append(f"polish stalled at residual {res:.3e}")
        entries.append(RootEntry(x, res, branch=which, iterations=its))
    report = RootReport(entries, method=f"split-{F.degree}", warnings=warnings)
    return report.sort()
