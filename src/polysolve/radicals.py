"""Periodic nested-radical solvers: guarded fixed-point iterations whose
update applies a fractional principal-branch power and a root-of-unity
branch factor once per level.

Iteration seeds are zero throughout. The budgets and the tolerance are
fixed: 40 steps for an inner map, 60 for the outer iteration, a relative
step of 1e-12 for convergence and a modulus of 1e8 past which a step
reads diverged, never a root. The branch k is the only argument.
"""

from __future__ import annotations

import cmath
import math

from .poly import Polynomial, polish, principal_pow

_INNER_ITERS = 40  # v: the budget of an inner map
_OUTER_ITERS = 60  # mu: the budget of the outer iteration
_TOL = 1e-12
_MAX_MODULUS = 1e8


def _guarded_fixed_point(step, iters: int) -> tuple[complex, int, str]:
    """Picard iteration from 0 with an oscillation guard.

    Runs y <- (1-theta) y + theta step(y) with theta = 1 (the plain
    radical chain) until the update size stops shrinking; then theta is
    halved, which breaks the exact 2-cycles that arise when the chain
    lands on a zero of the radicand (seeding at 0 does this for integer
    coefficient instances). The fixed point itself is unchanged.
    """
    y = 0j
    theta = 1.0
    prev_delta = math.inf
    stall = 0
    for it in range(1, iters + 1):
        target = step(y)
        if abs(target) > _MAX_MODULUS:
            return target, it, "diverged"
        y_next = (1.0 - theta) * y + theta * target
        delta = abs(y_next - y)
        if delta <= _TOL * (1.0 + abs(y_next)):
            return y_next, it, "converged"
        if delta >= prev_delta * 0.999:
            stall += 1
            if stall >= 3 and theta > 1.0 / 64.0:
                theta *= 0.5
                stall = 0
        else:
            stall = 0
        prev_delta = delta
        y = y_next
    return y, iters, "maxiter"


def trinomial_radical_root(
    p_exp: float, q_exp: float, alpha: complex, c: complex, k: int = 0
) -> tuple[complex, int, str]:
    """Branch-k root of x^p + alpha x^q - c = 0 by the nested-radical
    iteration.

    Substituting y = x^q turns the equation into y^(p/q) = c - alpha y;
    the iteration is y <- e^(2*pi*i*k*q/p) (c - alpha y)^(q/p) from y = 0,
    and the root is unwound as x = e^(2*pi*i*k/p) (c - alpha y)^(1/p).
    Requires q != 0 and p/q > 1.
    """
    if q_exp == 0 or p_exp / q_exp <= 1.0:
        raise ValueError("nested radical form needs q != 0 and p/q > 1")
    return _trinomial_radical(p_exp, q_exp, alpha, c, k, _OUTER_ITERS)


def _trinomial_radical(
    p_exp: float, q_exp: float, alpha: complex, c: complex, k: int, iters: int
) -> tuple[complex, int, str]:
    """trinomial_radical_root, unchecked, with a budget of iters steps."""
    phase_y = cmath.exp(2j * math.pi * k * q_exp / p_exp)
    phase_x = cmath.exp(2j * math.pi * k / p_exp)

    y, iterations, status = _guarded_fixed_point(
        lambda y: phase_y * principal_pow(c - alpha * y, q_exp / p_exp), iters
    )
    if status == "diverged":
        return y, iterations, status
    x = phase_x * principal_pow(c - alpha * y, 1.0 / p_exp)
    return x, iterations, status


def quadrinomial_radical_root(
    p_exp: float,
    q_exp: float,
    v_exp: float,
    alpha: complex,
    beta: complex,
    c: complex,
    k: int = 0,
) -> tuple[complex, str]:
    """Branch-k root of x^p + alpha x^q + beta x^v - c = 0 (v < q < p,
    0 < q).

    The outer loop updates the effective constant c' = c - beta x^v; the
    inner loop is the branch-k trinomial iteration for x^p + alpha x^q = c',
    with the inner budget of 40 steps.
    """
    if not (v_exp < q_exp < p_exp and q_exp > 0):
        raise ValueError("exponents must satisfy v < q < p and q > 0")

    def outer(x: complex) -> complex:
        c_eff = c - beta * principal_pow(x, v_exp)
        x_next, _, inner_status = _trinomial_radical(
            p_exp, q_exp, alpha, c_eff, k, _INNER_ITERS
        )
        if inner_status == "diverged":
            return complex(2.0 * _MAX_MODULUS)
        return x_next

    x, _, status = _guarded_fixed_point(outer, _OUTER_ITERS)
    return x, status


def septic_radical_root(
    alpha: complex, beta: complex, gamma: complex, delta: complex, k: int = 0
) -> tuple[complex, str]:
    """Branch-k root of x^7 + alpha x^3 + beta x^2 + gamma x + delta = 0 by
    the double iteration.

    The inner map G(u) approximates the root of t^7 + gamma t - u = 0 with
    v = 40 steps of t <- e^(2*pi*i*k/7) (u - gamma t)^(1/7) from t = 0; the
    outer map iterates x <- G(-delta - beta x^2 - alpha x^3). The converged
    value is Newton-polished against the septic.
    """
    phase = cmath.exp(2j * math.pi * k / 7.0)

    def inner(u: complex) -> complex:
        t, _, _ = _guarded_fixed_point(
            lambda t: phase * principal_pow(u - gamma * t, 1.0 / 7.0), _INNER_ITERS
        )
        return t

    x, _, status = _guarded_fixed_point(
        lambda x: inner(-delta - beta * x * x - alpha * x**3), _OUTER_ITERS
    )
    if status == "diverged":
        return x, status
    p = Polynomial([delta, gamma, beta, alpha, 0, 0, 0, 1.0])
    x, _, _, converged = polish(p, x, tol=1e-12, max_iter=80)
    if not converged:
        status = "maxiter"
    return x, status
