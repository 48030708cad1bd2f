"""Deterministic random inputs for the verification suites.

Each test case gets its own ``random.Random`` keyed by a string derived
from the run seed and the case index, so runs are reproducible for a fixed
seed and independent of execution order (cases can run in parallel).
String seeding hashes the key, which is stable across platforms.

Generated objects are kept small on purpose: rationals with numerator and
denominator up to 7, Laurent coefficients with one or two terms, coweights
of sup norm at most 2.  Exact arithmetic cost grows quickly with entry
size, and small witnesses falsify wrong identities just as well.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .coweights import Cone, enumerate_cone
from .rings import VLaurent
from .whittaker import WhittakerData


_V_EXPONENTS = range(-2, 3)


def case_rng(seed: int, case) -> random.Random:
    return random.Random(f"{seed}:{case}")


def random_fraction(rng: random.Random, max_abs: int = 7) -> Fraction:
    """Nonzero signed rational with numerator and denominator in 1..max_abs."""
    sign = rng.choice((1, -1))
    return Fraction(sign * rng.randint(1, max_abs), rng.randint(1, max_abs))


def random_v(rng: random.Random, max_abs: int = 7) -> Fraction:
    """Nonzero rational with |v| != 1, so v-power weights stay visible."""
    while True:
        v = random_fraction(rng, max_abs)
        if abs(v) != 1:
            return v


def random_point(rng: random.Random, r: int, max_abs: int = 7) -> tuple[Fraction, ...]:
    return tuple(random_fraction(rng, max_abs) for _ in range(r))


def random_beta(rng: random.Random, n: int, max_abs: int = 7) -> tuple[Fraction, ...]:
    """Satake parameters avoiding the degenerate locus: no entry in
    {0, 1, -1} and no pair with b_i = b_j or b_i = 1/b_j."""
    out: list[Fraction] = []
    while len(out) < n:
        b = random_fraction(rng, max_abs)
        if abs(b) == 1:
            continue
        if any(b == c or b * c == 1 for c in out):
            continue
        out.append(b)
    return tuple(out)


def random_vlaurent(rng: random.Random) -> VLaurent:
    """Nonzero Laurent coefficient with one or two v-monomials of exponent
    in -2..2."""
    exps = rng.sample(_V_EXPONENTS, rng.randint(1, 2))
    return VLaurent({e: random_fraction(rng) for e in exps})


@functools.cache
def _cone(n: int, max_norm: int) -> tuple:
    """The cone the data are drawn from, enumerated once per (n, max_norm)."""
    return tuple(enumerate_cone(Cone.G, n, max_norm))


def random_whittaker_data(
    rng: random.Random, n: int, max_norm: int = 2, max_entries: int = 4
) -> WhittakerData:
    """Nonzero data supported on dominant coweights of sup norm <= max_norm."""
    cone = _cone(n, max_norm)
    count = rng.randint(1, min(max_entries, len(cone)))
    support = rng.sample(cone, count)
    return WhittakerData(n, {lam: random_vlaurent(rng) for lam in support})
