"""Polynomial core: representation, evaluation, bounds, Newton polishing,
the Durand-Kerner all-roots oracle, Sylvester resultants, the quadratic
Tschirnhaus reduction for quintics and the Brauer degree-reduction table.

Coefficients are stored constant-term first: coeffs[i] multiplies x**i.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

class DegreeError(ValueError):
    """Operation applied to a polynomial of unsupported degree."""


class ConvergenceError(ArithmeticError):
    """Iteration ran out of budget; carries the best result found so far."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class DegenerateError(ArithmeticError):
    """A construction collapsed (e.g. vanishing discriminant and leading term)."""


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial c_0 + c_1 x + ... + c_n x^n."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs):
        cs = [complex(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0j]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> complex:
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.lead == 1:
            return self
        return Polynomial([c / self.lead for c in self.coeffs])

    def __call__(self, x: complex) -> complex:
        return eval_poly(self, x)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0j] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def __str__(self) -> str:
        return format_poly(self)


@dataclass(frozen=True)
class RootEntry:
    root: complex
    residual: float
    branch: int = 0
    iterations: int = 0


@dataclass
class RootReport:
    roots: list[RootEntry]
    method: str
    warnings: list[str] = field(default_factory=list)

    def values(self) -> list[complex]:
        return [e.root for e in self.roots]

    def sort(self) -> "RootReport":
        self.roots.sort(key=lambda e: (e.root.real, e.root.imag))
        return self


@dataclass(frozen=True)
class RDBoundRow:
    n: int
    r: int
    rd_max: int


def eval_poly(p: Polynomial, x: complex) -> complex:
    """Horner evaluation of p at x."""
    acc: complex = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def eval_poly_and_deriv(p: Polynomial, x: complex) -> tuple[complex, complex]:
    """Extended Horner: returns (p(x), p'(x)).

    Public API and the tests' reference for newton_polish's one-pass
    kernel, _newton_pass; nothing in the package calls it.
    """
    b: complex = 0.0
    d: complex = 0.0
    for c in reversed(p.coeffs):
        d = d * x + b
        b = b * x + c
    return b, d


def scaled_residual(p: Polynomial, x: complex) -> float:
    """|p(x)| / max(1, sum |c_i| |x|^i), the universal success metric here."""
    ax = abs(x)
    scale = 0.0
    pw = 1.0
    for c in p.coeffs:
        scale += abs(c) * pw
        pw *= ax
    return abs(eval_poly(p, x)) / max(1.0, scale)


def cauchy_bound(p: Polynomial) -> float:
    """1 + max_{k<n} |c_k|/|c_n|; every root has modulus at most this."""
    if p.degree < 1:
        raise DegreeError("cauchy_bound needs degree >= 1")
    lead = abs(p.lead)
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1.0 + top / lead


def _newton_pass(terms: list[tuple[complex, float]], x: complex):
    """One pass over terms = (c_{n-i}, |c_i|) for i = 0..n: p(x) and p'(x)
    by the recurrences of eval_poly_and_deriv, and sum |c_i| |x|^i in the
    order scaled_residual sums it, so all three are bit for bit theirs."""
    ax = abs(x)
    fx: complex = 0.0
    dfx: complex = 0.0
    scale = 0.0
    pw = 1.0
    for c, mag in terms:
        dfx = dfx * x + fx
        fx = fx * x + c
        scale += mag * pw
        pw *= ax
    return fx, dfx, scale


def newton_polish(
    p: Polynomial, x0: complex, tol: float = 1e-12, max_iter: int = 60
) -> tuple[complex, float, int]:
    """Newton iteration x <- x - p(x)/p'(x) until the scaled residual <= tol.

    A vanishing derivative is sidestepped by a relative 1e-8 perturbation.
    Raises ConvergenceError (with the best iterate attached) when the budget
    runs out; the caller decides whether a stale iterate is usable.
    """
    x = complex(x0)
    best = (x, scaled_residual(p, x), 0)
    if best[1] <= tol:
        return best
    terms = list(zip(reversed(p.coeffs), map(abs, p.coeffs)))
    fx, dfx, _ = _newton_pass(terms, x)
    for it in range(1, max_iter + 1):
        if dfx == 0:
            x += 1e-8 * (1.0 + abs(x))
            fx, dfx, _ = _newton_pass(terms, x)
            continue
        x = x - fx / dfx
        fx, dfx, scale = _newton_pass(terms, x)
        res = abs(fx) / max(1.0, scale)
        if res < best[1]:
            best = (x, res, it)
        if res <= tol:
            return x, res, it
    raise ConvergenceError(f"newton_polish stalled at residual {best[1]:.3e}", best)


def polish(
    p: Polynomial, x0: complex, tol: float = 1e-12, max_iter: int = 60
) -> tuple[complex, float, int, bool]:
    """newton_polish that never raises: (root, residual, iterations,
    converged), with the best iterate when the budget runs out."""
    try:
        return (*newton_polish(p, x0, tol, max_iter), True)
    except ConvergenceError as exc:
        return (*exc.best, False)


def all_roots_oracle(p: Polynomial, tol: float = 1e-12) -> RootReport:
    """All roots at once by Durand-Kerner simultaneous iteration.

    Deliberately independent of every other solver in the package: it is
    the cross-check oracle. Initial guesses sit on a circle of radius
    cauchy_bound/2 at angles 2*pi*(k + 0.25)/n; sweeps stop when the
    largest coordinate move drops below tol, capped at 500 sweeps.
    """
    if p.degree < 1:
        raise DegreeError("all_roots_oracle needs degree >= 1")
    q = p.monic()
    n = q.degree
    r = cauchy_bound(p) / 2.0
    xs = [r * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    warnings: list[str] = []
    converged = False
    for _ in range(500):
        move = 0.0
        for k in range(n):
            num = eval_poly(q, xs[k])
            den: complex = 1.0
            for j in range(n):
                if j != k:
                    den *= xs[k] - xs[j]
            if den == 0:
                xs[k] += 1e-10 * (1.0 + abs(xs[k]))
                move = math.inf
                continue
            delta = num / den
            xs[k] -= delta
            move = max(move, abs(delta))
        if move <= tol:
            converged = True
            break
    entries = [
        RootEntry(x, scaled_residual(p, x), branch=k, iterations=0)
        for k, x in enumerate(xs)
    ]
    report = RootReport(entries, method="durand-kerner", warnings=warnings).sort()
    if not converged:
        worst = max(e.residual for e in report.roots)
        if worst > 1e-8:
            raise ConvergenceError(
                f"oracle stalled with residual {worst:.3e}", report
            )
        warnings.append("oracle hit the sweep cap; residuals still acceptable")
    return report


def lu_solve(
    matrix: list[list[complex]], rhs: list[complex] | None = None
) -> tuple[complex, list[complex] | None]:
    """LU elimination with partial pivoting, on copies of its arguments.

    Returns the determinant of the square matrix and, when rhs is given
    and the matrix is nonsingular, the solution x of matrix @ x = rhs
    (None otherwise).
    """
    n = len(matrix)
    a = [row[:] for row in matrix]
    x = None if rhs is None else list(rhs)
    det: complex = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            return 0.0, None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            if x is not None:
                x[col], x[pivot] = x[pivot], x[col]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c2 in range(col, n):
                a[r][c2] -= factor * a[col][c2]
            if x is not None:
                x[r] -= factor * x[col]
    if x is not None:
        for i in range(n - 1, -1, -1):
            acc = x[i]
            for k in range(i + 1, n):
                acc -= a[i][k] * x[k]
            x[i] = acc / a[i][i]
    return det, x


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


def match_roots(
    a: list[complex] | RootReport, b: list[complex] | RootReport
) -> tuple[float, list[tuple[int, int]]]:
    """Greedy minimal matching between two equally sized root sets.

    Pairs the globally closest roots first and returns the largest matched
    distance together with the index pairing.
    """
    xs = a.values() if isinstance(a, RootReport) else list(a)
    ys = b.values() if isinstance(b, RootReport) else list(b)
    if len(xs) != len(ys):
        raise ValueError(f"root counts differ: {len(xs)} vs {len(ys)}")
    pairs = sorted(
        ((abs(x - y), i, j) for i, x in enumerate(xs) for j, y in enumerate(ys)),
        key=lambda t: t[0],
    )
    used_i: set[int] = set()
    used_j: set[int] = set()
    matching: list[tuple[int, int]] = []
    worst = 0.0
    for dist, i, j in pairs:
        if i in used_i or j in used_j:
            continue
        used_i.add(i)
        used_j.add(j)
        matching.append((i, j))
        worst = max(worst, dist)
        if len(matching) == len(xs):
            break
    return worst, matching


def poly_from_roots(roots: list[complex]) -> Polynomial:
    """Monic polynomial with the given roots."""
    out = Polynomial([1.0])
    for r in roots:
        out = out * Polynomial([-r, 1.0])
    return out


# ---------------------------------------------------------------------------
# Shared text format: comma-separated coefficients, constant term first,
# each one "re" or "re±imi", e.g. "1, 0, -2+0.5i, 1".
# ---------------------------------------------------------------------------


def parse_coefficient(text: str) -> complex:
    token = text.strip().replace(" ", "")
    if not token:
        raise ValueError("empty coefficient")
    norm = token.replace("i", "j")
    if norm.endswith("j") and norm[:-1] in ("", "+", "-"):
        norm = norm[:-1] + "1j"
    try:
        value = complex(norm)
    except ValueError as exc:
        raise ValueError(f"bad coefficient {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite coefficient {text!r}")
    return value


def parse_poly(text: str) -> Polynomial:
    return Polynomial([parse_coefficient(tok) for tok in text.split(",")])


def format_coefficient(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def format_poly(p: Polynomial) -> str:
    return ", ".join(format_coefficient(c) for c in p.coeffs)
