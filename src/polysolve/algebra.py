"""Polynomial algebra beside the solve routes: Sylvester resultants, the
quadratic Tschirnhaus reduction of a quintic to principal form and the
Brauer degree-reduction table. Only the resultant, tschirnhaus and
rd-table subcommands use it, so a solve never imports it.
"""

from __future__ import annotations

import cmath
import math

from .poly import DegenerateError, DegreeError, Polynomial, _Record, lu_solve


class RDBoundRow(_Record, frozen=True):
    __slots__ = ("n", "r", "rd_max")

    def __init__(self, n: int, r: int, rd_max: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rd_max", rd_max)


def sylvester_resultant(p: Polynomial, q: Polynomial) -> complex:
    """Resultant of p and q as the determinant of their Sylvester matrix.

    The matrix is (m+n) x (m+n): n shifted rows of p's coefficients
    (leading first) above m shifted rows of q's. Zero exactly when the
    two polynomials share a root.
    """
    m, n = p.degree, q.degree
    if m < 1 or n < 1:
        raise DegreeError("sylvester_resultant needs both degrees >= 1")
    size = m + n
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows: list[list[complex]] = []
    for shift in range(n):
        rows.append([0j] * shift + pc + [0j] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([0j] * shift + qc + [0j] * (size - shift - n - 1))
    return lu_solve(rows)[0]


def _power_sums(p: Polynomial, up_to: int) -> list[complex]:
    """Newton power sums P_0..P_up_to of the roots of monic p."""
    n = p.degree
    a = list(p.monic().coeffs)  # a[i] multiplies x^i, a[n] == 1
    ps: list[complex] = [complex(n)]
    for k in range(1, up_to + 1):
        if k <= n:
            acc = -k * a[n - k]
            for j in range(1, k):
                acc -= a[n - j] * ps[k - j]
            ps.append(acc)
        else:
            acc = 0j
            for j in range(1, n + 1):
                acc -= a[n - j] * ps[k - j]
            ps.append(acc)
    return ps


def _poly_from_power_sums(ps: list[complex], n: int) -> Polynomial:
    """Monic degree-n polynomial whose root power sums are ps[1..n]."""
    e = [1.0 + 0j]
    for k in range(1, n + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * ps[j]
        e.append(acc / k)
    coeffs = [(-1) ** (n - i) * e[n - i] for i in range(n + 1)]
    return Polynomial(coeffs)


def tschirnhaus_quadratic(
    p: Polynomial,
) -> tuple[Polynomial, complex, complex]:
    """Quadratic Tschirnhaus transform w = v^2 + a1 v + a2 of a monic quintic.

    Picks a1, a2 so the resulting quintic in w has zero coefficients at
    w^4 and w^3 (principal form). Elimination runs through Newton power
    sums of the transformed roots, not a symbolic resultant: with P_k the
    power sums of p, sum(w) = P2 + a1 P1 + 5 a2 is linear and sum(w^2)
    reduces to a quadratic A a1^2 + B a1 + C after substituting a2.
    """
    if p.degree != 5:
        raise DegreeError("tschirnhaus_quadratic expects a quintic")
    if p.lead != 1:
        raise ValueError("tschirnhaus_quadratic expects a monic quintic")
    ps = _power_sums(p, 10)
    p1, p2, p3, p4 = ps[1], ps[2], ps[3], ps[4]
    A = p2 - p1 * p1 / 5.0
    B = 2.0 * (p3 - p1 * p2 / 5.0)
    C = p4 - p2 * p2 / 5.0
    scale = max(abs(p1), abs(p2), abs(p3), abs(p4), 1.0)
    tiny = 1e-12 * scale
    if abs(A) > tiny:
        disc = cmath.sqrt(B * B - 4.0 * A * C)
        # pick the larger-magnitude numerator for stability
        num = -B - disc if abs(-B - disc) >= abs(-B + disc) else -B + disc
        a1 = num / (2.0 * A)
    elif abs(B) > tiny:
        a1 = -C / B
    elif abs(C) <= tiny:
        a1 = 0j
    else:
        raise DegenerateError(
            "quadratic for the transform collapsed; shift the input first"
        )
    a2 = -(p2 + a1 * p1) / 5.0

    # Power sums of w_i = v_i^2 + a1 v_i + a2 via the trinomial expansion.
    qs: list[complex] = [5.0 + 0j]
    for k in range(1, 6):
        acc = 0j
        for ia in range(k + 1):
            for ib in range(k - ia + 1):
                ic = k - ia - ib
                coeff = math.factorial(k) // (
                    math.factorial(ia) * math.factorial(ib) * math.factorial(ic)
                )
                acc += coeff * (a1**ib) * (a2**ic) * ps[2 * ia + ib]
        qs.append(acc)
    out = _poly_from_power_sums(qs, 5)
    return out, a1, a2


def brauer_rd(n: int) -> RDBoundRow:
    """Largest r with (r-2)! + 1 <= n, and the bound rd_max = n - r."""
    if n < 5:
        raise ValueError("brauer_rd needs n >= 5")
    r = 3
    while math.factorial(r - 1) + 1 <= n:
        r += 1
    return RDBoundRow(n=n, r=r, rd_max=n - r)
