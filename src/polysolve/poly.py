"""Polynomial core: representation (with the trinomial and quadrinomial
shapes the routes recognize), evaluation, principal powers, the Newton
polygon, Newton polishing, the Durand-Kerner all-roots oracle, the errors
every route may raise, the default series budget and the base of the
package's result types.

Coefficients are stored constant-term first: coeffs[i] multiplies x**i.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable, Sequence
from operator import attrgetter


class _Record:
    """Base of the package's result types, plain slotted classes. A
    subclass lists its fields in constructor order in __slots__ and sets
    them in its own __init__. Records compare field by field and
    print as Name(field=value, ...). A subclass declared with frozen=True
    sets its fields through object.__setattr__, hashes by them and raises
    AttributeError on assignment and deletion; any other one is unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # the field values as a tuple, which attrgetter of one name is not
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))
        if frozen:
            cls.__hash__ = _field_hash
            cls.__setattr__ = cls.__delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor
        return self.__class__, self._values


def _field_hash(self: _Record) -> int:
    return hash(self._values)


def _read_only(self: _Record, name: str, *value) -> None:
    raise AttributeError(f"{self.__class__.__qualname__} is frozen: cannot set or delete {name!r}")


# the most terms a series sums unless its caller says otherwise
MAX_TERMS = 400


def _require_count(name: str, n) -> None:
    """An iteration or term count from a caller: an int of at least 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"{name} must be an int >= 1")


class DegreeError(ValueError):
    """Operation applied to a polynomial of unsupported degree."""


class ConvergenceError(ArithmeticError):
    """Iteration ran out of budget; carries the best result found so far."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class DivergenceError(ArithmeticError):
    """A series or iteration failed to converge; carries the partial value."""

    def __init__(self, message: str, partial: complex | None = None):
        super().__init__(message)
        self.partial = partial


class DegenerateError(ArithmeticError):
    """A construction collapsed (e.g. vanishing discriminant and leading term)."""


class GrimError(ArithmeticError):
    """grim.grim_solve found no usable root. It lives here, beside the
    other errors, so that a caller can catch it without importing grim."""

    def __init__(self, message: str, diagnostics: list[str]):
        super().__init__(message)
        self.diagnostics = diagnostics


class Polynomial(_Record, frozen=True):
    """Dense complex polynomial c_0 + c_1 x + ... + c_n x^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
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


class Trinomial(_Record, frozen=True):
    """z**s - alpha * z**b - q = 0 with integer exponents s > b >= 1."""

    __slots__ = ("s", "b", "alpha", "q")

    def __init__(self, s: int, b: int, alpha: complex, q: complex):
        if s < 2:
            raise ValueError("trinomial needs s >= 2")
        if not 1 <= b <= s - 1:
            raise ValueError("trinomial needs 1 <= b <= s-1")
        if q == 0:
            raise ValueError("trinomial needs q != 0")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", complex(alpha))
        object.__setattr__(self, "q", complex(q))

    def polynomial(self) -> Polynomial:
        coeffs = [0j] * (self.s + 1)
        coeffs[0] = -self.q
        coeffs[self.b] = -self.alpha
        coeffs[self.s] = 1.0
        return Polynomial(coeffs)


class Quadrinomial(_Record, frozen=True):
    """x**s + c * x**r + alpha * x - b = 0 with s >= 4 and 2 <= r <= s-2."""

    __slots__ = ("s", "r", "c", "alpha", "b")

    def __init__(self, s: int, r: int, c: complex, alpha: complex, b: complex):
        if s < 4:
            raise ValueError("quadrinomial needs s >= 4")
        if not 2 <= r <= s - 2:
            raise ValueError("quadrinomial needs 2 <= r <= s-2")
        if alpha == 0:
            raise ValueError("quadrinomial needs alpha != 0")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", complex(c))
        object.__setattr__(self, "alpha", complex(alpha))
        object.__setattr__(self, "b", complex(b))

    def polynomial(self) -> Polynomial:
        coeffs = [0j] * (self.s + 1)
        coeffs[0] = -self.b
        coeffs[1] = self.alpha
        coeffs[self.r] = self.c
        coeffs[self.s] = 1.0
        return Polynomial(coeffs)


class RootEntry(_Record, frozen=True):
    __slots__ = ("root", "residual", "branch", "iterations")

    def __init__(self, root: complex, residual: float, branch: int = 0, iterations: int = 0):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "iterations", iterations)


class RootReport(_Record):
    __slots__ = ("roots", "method", "warnings", "aimed")

    def __init__(
        self,
        roots: list[RootEntry],
        method: str,
        warnings: list[str] | None = None,  # a fresh list when None
        aimed: int | None = None,  # roots the route aimed at; None means all n
    ):
        self.roots = roots
        self.method = method
        self.warnings = [] if warnings is None else warnings
        self.aimed = aimed

    def values(self) -> list[complex]:
        return [e.root for e in self.roots]

    def sort(self) -> "RootReport":
        self.roots.sort(key=lambda e: (e.root.real, e.root.imag))
        return self


def is_new_root(x: complex, roots: Iterable[complex]) -> bool:
    """True unless x lies within 1e-6 (1 + |x|) of one of roots: the one
    radius inside which two roots count as the same root."""
    tol = 1e-6 * (1.0 + abs(x))
    return all(abs(x - r) > tol for r in roots)


def distinct_roots(entries: list[RootEntry]) -> list[RootEntry]:
    """The one root dedup: visit entries by increasing (residual, re, im)
    and drop any entry that is_new_root rejects against those already
    kept. The kept entries come back in visiting order."""
    kept: list[RootEntry] = []
    for e in sorted(entries, key=lambda e: (e.residual, e.root.real, e.root.imag)):
        if is_new_root(e.root, (k.root for k in kept)):
            kept.append(e)
    return kept


def eval_poly(p: Polynomial, x: complex) -> complex:
    """Horner evaluation of p at x."""
    acc: complex = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def eval_poly_and_deriv(p: Polynomial, x: complex) -> tuple[complex, complex]:
    """Extended Horner: returns (p(x), p'(x)). The tests take it as the
    reference for newton_polish's one-pass kernel, _newton_pass."""
    b: complex = 0.0
    d: complex = 0.0
    for c in reversed(p.coeffs):
        d = d * x + b
        b = b * x + c
    return b, d


def principal_pow(z: complex, e: float) -> complex:
    """Principal branch of z**e in polar form, |z|**e at angle e*Arg(z)
    with Arg in [-pi, pi]; the sign of a zero imaginary part picks the side
    of the negative real axis. 0 maps to 0."""
    if z == 0:
        return 0j
    r = abs(z) ** e
    theta = cmath.phase(z) * e
    return complex(r * math.cos(theta), r * math.sin(theta))


def scaled_residual(p: Polynomial, x: complex) -> float:
    """|p(x)| / max(1, sum |c_i| |x|^i), the universal success metric here;
    inf when the sum is not finite, since then nothing is known of p(x)."""
    scale = _scale(p, x)
    if not scale < math.inf:
        return math.inf
    return abs(eval_poly(p, x)) / max(1.0, scale)


def _scale(p: Polynomial, x: complex) -> float:
    """The residual scale sum |c_i| |x|^i, summed from i = 0 up."""
    ax = abs(x)
    scale = 0.0
    pw = 1.0
    for c in p.coeffs:
        scale += abs(c) * pw
        pw *= ax
    return scale


def newton_polygon(p: Polynomial) -> list[tuple[int, int, float]]:
    """Edges (i, j, u) of the upper convex hull of the points (i, log|c_i|)
    over the non-zero coefficients, left to right, with
    u = |c_i / c_j|^(1/(j-i)) taken from the logs so that no coefficient
    ratio is formed (inf when u itself overflows). Collinear points join
    one edge. The slopes bound the root moduli in groups: about j - i roots
    of p have modulus near u (Ostrowski; Bini 1996 starts Aberth's method
    there), so the edge lengths sum to n - m when x^m divides p.
    """
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        li = math.log(abs(c))
        while len(hull) >= 2:
            (i0, l0), (i1, l1) = hull[-2], hull[-1]
            # drop the middle point when it is on or under the chord
            if (l1 - l0) * (i - i0) > (li - l0) * (i1 - i0):
                break
            hull.pop()
        hull.append((i, li))
    edges = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        e = (li - lj) / (j - i)
        edges.append((i, j, math.exp(e) if e <= 709.78 else math.inf))
    return edges


def _polygon_points(p: Polynomial, turn: float):
    """For each edge (i, j, u) of p's Newton polygon, j - i points at
    radius u, at angles 2 pi (k + 1/2) / (j - i) + turn (i + 1): off the
    real axis, and turned from one edge to the next. Yields (i, j, k, x)."""
    for i, j, u in newton_polygon(p):
        for k in range(j - i):
            angle = 2.0 * math.pi * (k + 0.5) / (j - i) + turn * (i + 1)
            yield i, j, k, u * cmath.exp(1j * angle)


def _newton_pass(terms: list[tuple[complex, float]], x: complex):
    """One pass over terms = (c_{n-i}, |c_i|) for i = 0..n: p(x) and p'(x)
    by the recurrences of eval_poly_and_deriv, and sum |c_i| |x|^i in the
    order scaled_residual sums it, so all three are bit for bit theirs.
    The third value, None, stands where _laguerre_pass gives p''(x) / 2."""
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
    return fx, dfx, None, scale


def _laguerre_pass(terms: list[tuple[complex, float]], x: complex):
    """_newton_pass that also gives p''(x) / 2 as its third value; the
    other three are bit for bit _newton_pass's."""
    ax = abs(x)
    fx: complex = 0.0
    dfx: complex = 0.0
    d2fx: complex = 0.0
    scale = 0.0
    pw = 1.0
    for c, mag in terms:
        d2fx = d2fx * x + dfx
        dfx = dfx * x + fx
        fx = fx * x + c
        scale += mag * pw
        pw *= ax
    return fx, dfx, d2fx, scale


def _residual(fx: complex, scale: float) -> float:
    """scaled_residual from p(x) and the scale: |p(x)| / max(1, scale), inf
    when the scale is not finite."""
    return abs(fx) / max(1.0, scale) if scale < math.inf else math.inf


def _maehly(x: complex, fx: complex, dfx: complex, deflate: Sequence[complex]):
    """p'(x) - p(x) sum 1/(x - r) over r in deflate: the derivative Newton
    needs to step on p(x) / prod (x - r). 0 when x is one of the r."""
    s: complex = 0.0
    for r in deflate:
        if x == r:
            return 0j
        s += 1.0 / (x - r)
    return dfx - fx * s


def _laguerre(
    x: complex, fx: complex, dfx: complex, d2fx: complex, deflate: Sequence[complex], m: int
):
    """Laguerre's step on q = p / prod (x - r) over r in deflate, q of
    degree m: m / (G +- sqrt((m - 1)(m H - G^2))), the sign giving the
    larger denominator, with G = q'/q = p'/p - sum 1/(x - r) and
    H = -G' = (p'/p)^2 - p''/p - sum 1/(x - r)^2 (d2fx is p''/2). Maehly's
    step where that is not finite; 0 where p(x) = 0, None where _maehly
    gives 0."""
    s1 = s2 = 0j
    for r in deflate:
        if x == r:
            return None
        t = 1.0 / (x - r)
        s1 += t
        s2 += t * t
    if fx == 0:
        return 0j
    a = dfx / fx
    g = a - s1
    rad = (m - 1) * (m * (a * a - 2.0 * d2fx / fx - s2) - g * g)
    if abs(rad) < math.inf:
        root = cmath.sqrt(rad)
        den = g + root if abs(g + root) >= abs(g - root) else g - root
        if den:
            return m / den
    d = dfx - fx * s1
    return fx / d if d else None


# steps a settling newton_polish takes after it settles, keeping the best
_FINISH_STEPS = 3
# a finishing step of at most this times |x| can move x only by rounding
_ROUNDING_STEP = 4.0 * sys.float_info.epsilon


def newton_polish(
    p: Polynomial,
    x0: complex,
    tol: float = 1e-12,
    max_iter: int = 60,
    deflate: Sequence[complex] = (),
    settle: bool = False,
) -> tuple[complex, float, int]:
    """Newton iteration x <- x - p(x)/p'(x) until the scaled residual <= tol.

    deflate holds roots of p found already. The step becomes Maehly's
    x <- x - p/(p' - p sum 1/(x - r)), Newton on p / prod (x - r), which
    cannot converge to a simple root among them, so each call finds another
    root of p without forming a quotient.

    With settle (GRIM's polish) each step is Laguerre's on the same
    p / prod (x - r), of degree n - len(deflate), from one pass that also
    gives p''; it converges cubically from far starts. Where its terms are
    not finite (|p'| near 1e200, say) the step is Maehly's. The name stays
    newton_polish: the non-settling path is Newton's, bit for bit, and the
    settling one is the same loop. The call stops only where the iteration
    has settled on a root. Where p is tiny over a wide region (Wilkinson's
    polynomial), the residual meets tol while the steps still move far, so
    the step that meets it must also be within sqrt(tol) (1 + |x|). Then
    up to 3 finishing steps run, and the best iterate is returned. The call
    returns sooner where rounding alone can move x: when |p(x)| is at most
    2 n eps sum |c_i| |x|^i (eps the machine epsilon), Horner's rounding
    bound, or a finishing step is at most 4 eps |x|.

    A vanishing derivative is sidestepped by a relative 1e-8 perturbation.
    Raises ConvergenceError (with the best iterate attached) when the budget
    runs out; the caller decides whether a stale iterate is usable.
    """
    x = complex(x0)
    terms = list(zip(reversed(p.coeffs), map(abs, p.coeffs)))
    kernel = _laguerre_pass if settle else _newton_pass
    fx, dfx, d2fx, scale = kernel(terms, x)
    best = (x, _residual(fx, scale), 0)
    if best[1] <= tol and not settle:
        return best
    step_tol = math.sqrt(tol)
    # Horner's rounding bound on p(x) is about 2 n eps times the scale
    floor = 2.0 * p.degree * sys.float_info.epsilon
    left = None  # once settled, the finishing steps still to take
    it = 0
    while it < max_iter or left:
        it += 1
        if settle:
            if left is not None and abs(fx) <= floor * scale:
                return best
            step = _laguerre(x, fx, dfx, d2fx, deflate, p.degree - len(deflate))
        else:
            if deflate:
                dfx = _maehly(x, fx, dfx, deflate)
            step = fx / dfx if dfx else None
        if step is None:
            x += 1e-8 * (1.0 + abs(x))
            fx, dfx, d2fx, scale = kernel(terms, x)
        else:
            if left is not None and abs(step) <= _ROUNDING_STEP * abs(x):
                return best
            x = x - step
            fx, dfx, d2fx, scale = kernel(terms, x)
            res = _residual(fx, scale)
            if res < best[1]:
                best = (x, res, it)
            if left is None and res <= tol:
                if not settle:
                    return x, res, it
                if abs(step) <= step_tol * (1.0 + abs(x)):
                    left = _FINISH_STEPS
                    continue
        if left is not None:
            left -= 1
            if left == 0:
                return best
    raise ConvergenceError(f"newton_polish stalled at residual {best[1]:.3e}", best)


def polish(
    p: Polynomial,
    x0: complex,
    tol: float = 1e-12,
    max_iter: int = 60,
    deflate: Sequence[complex] = (),
    settle: bool = False,
) -> tuple[complex, float, int, bool]:
    """newton_polish that never raises: (root, residual, iterations,
    converged), with the best iterate when the budget runs out."""
    try:
        return (*newton_polish(p, x0, tol, max_iter, deflate, settle), True)
    except ConvergenceError as exc:
        return (*exc.best, False)


def all_roots_oracle(p: Polynomial) -> RootReport:
    """All roots at once by Durand-Kerner simultaneous iteration.

    Deliberately independent of every other solver in the package: it is
    the cross-check oracle. It starts from p's Newton polygon, as Bini 1996
    starts Aberth's method: _polygon_points turned by 0.4, so that no start
    is GRIM's, and the m zeros of a factor x^m on a circle of half the
    smallest edge radius (of 1/2 when p is c x^n). Sweeps stop when the
    largest coordinate move drops to 1e-12, capped at 500 sweeps, or at
    the first sweep whose move is NaN, which then raises ConvergenceError.
    """
    if p.degree < 1:
        raise DegreeError("all_roots_oracle needs degree >= 1")
    q = p.monic()
    n = q.degree
    xs = [x for *_, x in _polygon_points(p, 0.4)]
    m = n - len(xs)
    r = min(map(abs, xs), default=1.0) / 2.0
    xs[:0] = [r * cmath.exp(2j * math.pi * (k + 0.25) / m) for k in range(m)]
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
            if not abs(delta) <= move:  # a NaN delta too
                move = abs(delta)
        # a NaN iterate makes every later move NaN: nothing more to gain
        if move <= 1e-12 or math.isnan(move):
            break
    entries = [RootEntry(x, scaled_residual(p, x), branch=k) for k, x in enumerate(xs)]
    report = RootReport(entries, method="durand-kerner").sort()
    if not move <= 1e-12:
        worst = max(e.residual for e in report.roots)
        if worst > 1e-8:
            raise ConvergenceError(f"oracle stalled with residual {worst:.3e}", report)
        report.warnings.append("oracle hit the sweep cap; residuals still acceptable")
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


def match_roots(
    a: list[complex] | RootReport, b: list[complex] | RootReport
) -> tuple[float, list[tuple[int, int]]]:
    """Greedy minimal matching between two equally sized root sets.

    Pairs the globally closest roots first and returns the largest matched
    distance, not finite when a root is not, with the index pairing.
    """
    xs = a.values() if isinstance(a, RootReport) else list(a)
    ys = b.values() if isinstance(b, RootReport) else list(b)
    if len(xs) != len(ys):
        raise ValueError(f"root counts differ: {len(xs)} vs {len(ys)}")
    pairs = sorted(
        ((abs(x - y), i, j) for i, x in enumerate(xs) for j, y in enumerate(ys)),
        key=lambda t: (math.isnan(t[0]), t[0]),  # NaN distances last
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
        if not dist <= worst:  # a NaN distance too
            worst = dist
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
