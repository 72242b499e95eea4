"""Root-set checks that do not rely on the program.

A root set passes when it has all n roots, when it matches the mpmath
reference one to one within the route's tolerance, and when its sum and
product agree with Vieta's formulas on the exact coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

# Scaled residual each route is held to: 100 times what the route polishes
# to (split 1e-11, series 1e-12, GRIM 1e-10; the CLI's own cross-check uses
# 1e-8), and 1e-8 for the unpolished pFq sum. A root passes when it lies
# within eta * scale (+ a few ulps) of its reference root, where scale is
# the root's error magnification from reference.py.
ETA = {
    "split": 1e-9,
    "series": 1e-10,
    "grim": 1e-8,
    "pfq": 1e-8,
    "cli": 1e-8,
}
_ULPS = 1e-14


@dataclass
class Verdict:
    complete: bool
    matched: bool
    vieta: bool

    @property
    def ok(self) -> bool:
        return self.complete and self.matched and self.vieta


def _tol(root: complex, scale: float, eta: float) -> float:
    return eta * scale + _ULPS * (1.0 + abs(root))


def check_roots(got: list[complex], ref: list[tuple[complex, float]],
                coeffs: tuple[complex, ...], eta: float) -> Verdict:
    n = len(coeffs) - 1
    tols = [_tol(r, scale, eta) for r, scale in ref]
    if len(got) != n:
        return Verdict(complete=False, matched=False, vieta=False)

    # pair the globally closest roots first; each pair must be within tolerance
    pairs = sorted(
        (abs(g - r), i, j) for i, g in enumerate(got) for j, (r, _) in enumerate(ref)
    )
    used_got: set[int] = set()
    used_ref: set[int] = set()
    matched = True
    for dist, i, j in pairs:
        if i in used_got or j in used_ref:
            continue
        used_got.add(i)
        used_ref.add(j)
        if dist > tols[j]:
            matched = False
        if len(used_got) == n:
            break
    return Verdict(True, matched, vieta_holds(got, tols, coeffs))


def vieta_holds(got: list[complex], tols: list[float],
                coeffs: tuple[complex, ...]) -> bool:
    """Sum and product of the roots against -c_{n-1}/c_n and (-1)^n c_0/c_n.

    Each root may sit up to its tolerance from the exact one, which bounds
    how far the sum and the product may move.
    """
    n = len(coeffs) - 1
    lead = coeffs[-1]
    want_sum = -coeffs[n - 1] / lead
    want_prod = (-1) ** n * coeffs[0] / lead
    sum_err = sum(tols) + _ULPS * (1.0 + sum(abs(g) for g in got))
    prod = 1.0 + 0j
    hull = 1.0
    plain = 1.0
    for g, t in zip(got, tols):
        prod *= g
        hull *= abs(g) + t
        plain *= abs(g)
    prod_err = (hull - plain) + _ULPS * (1.0 + plain) * n
    return abs(sum(got) - want_sum) <= sum_err and abs(prod - want_prod) <= prod_err
