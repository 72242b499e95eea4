"""Periodic nested-radical solvers: guarded fixed-point iterations whose
update applies a fractional principal-branch power and a root-of-unity
branch factor once per level.

Iteration seeds are zero throughout. Convergence means the defining
fixed-point residual dropped below tol; anything that leaves the
max_modulus guard is reported as diverged, never as a root.
"""

from __future__ import annotations

import cmath
import math

from .poly import (
    Polynomial,
    _Record,
    _require_count,
    _require_positive,
    polish,
    principal_pow,
)


class RadicalIterConfig(_Record, frozen=True):
    __slots__ = ("k", "inner_iters", "outer_iters", "tol", "max_modulus")

    def __init__(
        self,
        k: int = 0,  # branch index
        inner_iters: int = 40,  # v
        outer_iters: int = 60,  # mu
        tol: float = 1e-12,
        max_modulus: float = 1e8,
    ):
        _require_count("inner_iters", inner_iters)
        _require_count("outer_iters", outer_iters)
        _require_positive("tol", tol)
        _require_positive("max_modulus", max_modulus)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "inner_iters", inner_iters)
        object.__setattr__(self, "outer_iters", outer_iters)
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_modulus", max_modulus)


def _guarded_fixed_point(
    step, y0: complex, iters: int, tol: float, max_modulus: float
) -> tuple[complex, int, str]:
    """Picard iteration with an oscillation guard.

    Runs y <- (1-theta) y + theta step(y) with theta = 1 (the plain
    radical chain) until the update size stops shrinking; then theta is
    halved, which breaks the exact 2-cycles that arise when the chain
    lands on a zero of the radicand (seeding at 0 does this for integer
    coefficient instances). The fixed point itself is unchanged.
    """
    y = complex(y0)
    theta = 1.0
    prev_delta = math.inf
    stall = 0
    for it in range(1, iters + 1):
        target = step(y)
        if abs(target) > max_modulus:
            return target, it, "diverged"
        y_next = (1.0 - theta) * y + theta * target
        delta = abs(y_next - y)
        if delta <= tol * (1.0 + abs(y_next)):
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
    p_exp: float,
    q_exp: float,
    alpha: complex,
    c: complex,
    cfg: RadicalIterConfig = RadicalIterConfig(),
) -> tuple[complex, int, str]:
    """Root of x^p + alpha x^q - c = 0 by the nested-radical iteration.

    Substituting y = x^q turns the equation into y^(p/q) = c - alpha y;
    the iteration is y <- e^(2*pi*i*k*q/p) (c - alpha y)^(q/p) from y = 0,
    and the root is unwound as x = e^(2*pi*i*k/p) (c - alpha y)^(1/p).
    Requires p/q > 1.
    """
    if p_exp / q_exp <= 1.0:
        raise ValueError("nested radical form needs p/q > 1")
    phase_y = cmath.exp(2j * math.pi * cfg.k * q_exp / p_exp)
    phase_x = cmath.exp(2j * math.pi * cfg.k / p_exp)

    y, iterations, status = _guarded_fixed_point(
        lambda y: phase_y * principal_pow(c - alpha * y, q_exp / p_exp),
        0j,
        cfg.outer_iters,
        cfg.tol,
        cfg.max_modulus,
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
    cfg: RadicalIterConfig = RadicalIterConfig(),
) -> tuple[complex, str]:
    """Root of x^p + alpha x^q + beta x^v - c = 0 (v < q < p, 0 < q).

    Outer loop updates the effective constant c' = c - beta x^v; the inner
    loop is trinomial_radical_root for x^p + alpha x^q = c', with
    inner_iters as its budget.
    """
    if not (v_exp < q_exp < p_exp and q_exp > 0):
        raise ValueError("exponents must satisfy v < q < p and q > 0")
    inner_cfg = RadicalIterConfig(
        k=cfg.k, outer_iters=cfg.inner_iters, tol=cfg.tol, max_modulus=cfg.max_modulus
    )

    def outer(x: complex) -> complex:
        c_eff = c - beta * principal_pow(x, v_exp)
        x_next, _, inner_status = trinomial_radical_root(
            p_exp, q_exp, alpha, c_eff, inner_cfg
        )
        if inner_status == "diverged":
            return complex(2.0 * cfg.max_modulus)
        return x_next

    x, _, status = _guarded_fixed_point(
        outer, 0j, cfg.outer_iters, cfg.tol, cfg.max_modulus
    )
    return x, status


def sextic_radical_root(
    w: complex, c: complex, b: complex, cfg: RadicalIterConfig = RadicalIterConfig()
) -> tuple[complex, str]:
    """Fixed point of the two-level radical
    x = (w - c e^(2*pi*i*k/6) (b - x)^(1/6))^(1/2).

    The contract is the fixed-point residual only; no mapping from a target
    sextic's coefficients to (w, c, b) is provided.
    """
    phase = cmath.exp(2j * math.pi * cfg.k / 6.0)
    x, _, status = _guarded_fixed_point(
        lambda x: principal_pow(w - c * phase * principal_pow(b - x, 1.0 / 6.0), 0.5),
        0j,
        cfg.outer_iters,
        cfg.tol,
        cfg.max_modulus,
    )
    return x, status


def sextic_radical_residual(
    x: complex, w: complex, c: complex, b: complex, k: int = 0
) -> float:
    """|x - (w - c e^(2*pi*i*k/6) (b - x)^(1/6))^(1/2)|, the defining residual."""
    phase = cmath.exp(2j * math.pi * k / 6.0)
    return abs(x - principal_pow(w - c * phase * principal_pow(b - x, 1.0 / 6.0), 0.5))


def septic_radical_root(
    alpha: complex,
    beta: complex,
    gamma: complex,
    delta: complex,
    cfg: RadicalIterConfig = RadicalIterConfig(),
) -> tuple[complex, str]:
    """Root of x^7 + alpha x^3 + beta x^2 + gamma x + delta = 0 by the
    double iteration.

    The inner map G(u) approximates the root of t^7 + gamma t - u = 0 with
    v steps of t <- e^(2*pi*i*k/7) (u - gamma t)^(1/7) from t = 0; the
    outer map iterates x <- G(-delta - beta x^2 - alpha x^3). The converged
    value is Newton-polished against the septic.
    """
    phase = cmath.exp(2j * math.pi * cfg.k / 7.0)

    def inner(u: complex) -> complex:
        t, _, _ = _guarded_fixed_point(
            lambda t: phase * principal_pow(u - gamma * t, 1.0 / 7.0),
            0j,
            cfg.inner_iters,
            cfg.tol,
            cfg.max_modulus,
        )
        return t

    x, _, status = _guarded_fixed_point(
        lambda x: inner(-delta - beta * x * x - alpha * x**3),
        0j,
        cfg.outer_iters,
        cfg.tol,
        cfg.max_modulus,
    )
    if status == "diverged":
        return x, status
    p = Polynomial([delta, gamma, beta, alpha, 0, 0, 0, 1.0])
    x, _, _, converged = polish(p, x, tol=1e-12, max_iter=80)
    if not converged:
        status = "maxiter"
    return x, status
