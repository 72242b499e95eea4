"""Seeded input corpora for the four workloads.

Everything here is plain stdlib and never imports polysolve. Each workload
draws from fixed pools: entry ``index`` of a pool at one degree is always
the same polynomial, made by its own ``random.Random``. The run seed picks
which entries a round uses, so the same seed gives the same inputs, and
the reference roots of an entry are computed once per checkout.
Coefficient lists are constant term first, as in ``polysolve.Polynomial``.

GRIM inputs are the exception: grim_solve misses or repeats roots on some
of them (see README.md), so a seeded pick would make the failed share of a
run depend on the seed. general_grim therefore runs its whole pool in every
round, in an order the seed sets, and cli_auto always takes the first
CLI_PICK entries of the GRIM pool at each degree.

One round is the fixed list of operations a run repeats until its time is
up, so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

# pool size and entries used per round, per degree (or per s)
SPLIT_DEGREES = (6, 8, 10)
SPLIT_POOL, SPLIT_PICK = 160, 128
TRINOMIAL_S = tuple(range(2, 13))
TRINOMIAL_STRATA, TRINOMIAL_VARIANTS = 32, 2
GRIM_DEGREES = tuple(range(5, 25))
GRIM_POOL = 10
CLOSED_DEGREES = (2, 3, 4)
CLOSED_POOL = 64
CLI_ODD_DEGREES = (5, 7, 9, 11)
CLI_PICK = 2


@dataclass(frozen=True)
class Op:
    """One operation: which call to make on which exact coefficients.

    ``kind`` selects the call (split, trinomial, grim or cli; see
    workloads.py); ``pool`` names the pool the coefficients come from
    (closed, split, trinomial or grim); ``coeffs`` are the exact
    coefficients handed to the program. Trinomials also carry
    (s, b, alpha, q).
    """

    kind: str
    pool: str
    coeffs: tuple[complex, ...]
    trinomial: tuple[int, int, complex, complex] | None = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def unit_square(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def expand_roots(roots: list[complex]) -> tuple[complex, ...]:
    """Coefficients of prod (x - r), constant term first."""
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return tuple(coeffs)


def argument_constant(s: int, b: int) -> float:
    """b^b (s-b)^(s-b) / s^s, the modulus constant of the regrouped
    hypergeometric argument of x^s - alpha x^b - q."""
    return b**b * (s - b) ** (s - b) / s**s


def split_draw(degree: int, index: int) -> tuple[complex, ...]:
    """Monic, other coefficients uniform on [-1, 1] x [-1, 1]."""
    rng = random.Random(f"split:{degree}:{index}")
    return tuple(unit_square(rng) for _ in range(degree)) + (1.0 + 0j,)


def closed_draw(degree: int, index: int) -> tuple[complex, ...]:
    """Coefficients uniform on the unit square, leading one kept off zero."""
    rng = random.Random(f"closed:{degree}:{index}")
    lead = complex(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
    return tuple(unit_square(rng) for _ in range(degree)) + (lead,)


def grim_draw(degree: int, index: int) -> tuple[complex, ...]:
    """Roots with |re|, |im| <= 1.2 and pairwise distance over 0.1."""
    rng = random.Random(f"grim:{degree}:{index}")
    roots: list[complex] = []
    while len(roots) < degree:
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if all(abs(z - w) > 0.1 for w in roots):
            roots.append(z)
    return expand_roots(roots)


def trinomial_draw(s: int, stratum: int, variant: int) -> Op:
    """x^s - alpha x^b - q with the regrouped-argument modulus in [0.05, 0.8].

    b and the modulus set most of the work, so they are stratified: stratum
    j has b = 1 + j mod (s-1) and its modulus at a point drawn once in the
    j-th of TRINOMIAL_STRATA equal slices. The variants of a stratum share
    that modulus and draw their own |q| and phases, so which variant a seed
    picks changes the inputs more than the work.
    """
    b = 1 + stratum % (s - 1)
    slice_point = random.Random(f"trinomial:{s}:{stratum}").random()
    modulus = 0.05 + 0.75 * (stratum + slice_point) / TRINOMIAL_STRATA
    rng = random.Random(f"trinomial:{s}:{stratum}:{variant}")
    q = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
    mod_alpha = (modulus * abs(q) ** (s - b) / argument_constant(s, b)) ** (1.0 / s)
    alpha = cmath.rect(mod_alpha, rng.uniform(-math.pi, math.pi))
    coeffs = [0j] * (s + 1)
    coeffs[0] = -q
    coeffs[b] = -alpha
    coeffs[s] = 1.0 + 0j
    return Op("trinomial", "trinomial", tuple(coeffs), trinomial=(s, b, alpha, q))


def pick(rng: random.Random, pool: int, count: int) -> list[int]:
    """``count`` distinct pool indices, in increasing order."""
    return sorted(rng.sample(range(pool), count))


def even_split_round(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [
        Op("split", "split", split_draw(d, i))
        for d in SPLIT_DEGREES
        for i in pick(rng, SPLIT_POOL, SPLIT_PICK)
    ]


def trinomial_picks(rng: random.Random) -> list[tuple[int, int]]:
    """One variant of every stratum, so that each seed covers all strata."""
    return [(j, rng.randrange(TRINOMIAL_VARIANTS)) for j in range(TRINOMIAL_STRATA)]


def trinomial_hyper_round(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [trinomial_draw(s, j, v) for s in TRINOMIAL_S for j, v in trinomial_picks(rng)]


def general_grim_round(seed: int) -> list[Op]:
    """Every GRIM pool entry at every degree, shuffled by the seed."""
    ops = [Op("grim", "grim", grim_draw(d, i)) for d in GRIM_DEGREES for i in range(GRIM_POOL)]
    random.Random(seed).shuffle(ops)
    return ops


def cli_auto_round(seed: int) -> list[Op]:
    """CLI_PICK inputs for each route ``auto`` picks, at each degree: closed
    forms (2-4), split (6, 8, 10), series (odd-degree trinomials) and GRIM
    (odd-degree general polynomials, the same entries for every seed)."""
    rng = random.Random(seed)
    inputs = []
    for d in CLOSED_DEGREES:
        inputs += [("closed", closed_draw(d, i)) for i in pick(rng, CLOSED_POOL, CLI_PICK)]
    for d in SPLIT_DEGREES:
        inputs += [("split", split_draw(d, i)) for i in pick(rng, SPLIT_POOL, CLI_PICK)]
    for d in CLI_ODD_DEGREES:
        for _ in range(CLI_PICK):
            stratum, variant = rng.randrange(TRINOMIAL_STRATA), rng.randrange(TRINOMIAL_VARIANTS)
            inputs.append(("trinomial", trinomial_draw(d, stratum, variant).coeffs))
    for d in CLI_ODD_DEGREES:
        inputs += [("grim", grim_draw(d, i)) for i in range(CLI_PICK)]
    return [Op("cli", pool, coeffs) for pool, coeffs in inputs]


ROUNDS = {
    "even_split": even_split_round,
    "trinomial_hyper": trinomial_hyper_round,
    "general_grim": general_grim_round,
    "cli_auto": cli_auto_round,
}


def format_coefficient(c: complex) -> str:
    """Exact text form the CLI parses back to the same float pair."""
    sign = "+" if math.copysign(1.0, c.imag) > 0 else "-"
    return f"{c.real!r}{sign}{abs(c.imag)!r}i"


def format_coeffs(coeffs: tuple[complex, ...]) -> str:
    return ",".join(format_coefficient(c) for c in coeffs)
