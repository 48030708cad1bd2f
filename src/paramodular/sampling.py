"""Deterministic random inputs for the verification suites.

Each test case gets its own ``random.Random`` keyed by a string derived
from the run seed and the case index, so runs are reproducible for a fixed
seed and independent of execution order (cases can run in parallel).
String seeding hashes the key, which is stable across platforms.  Every
draw makes the getrandbits calls of the ``random`` call it stands for.

Generated objects are kept small on purpose: rationals with numerator and
denominator up to 7, Laurent coefficients with one or two terms, coweights
of sup norm at most 2.  Exact arithmetic cost grows quickly with entry
size, and small witnesses falsify wrong identities just as well.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .coweights import Cone, enumerate_cone
from .rings import SymLaurent
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


@functools.cache
def _cone(n: int, max_norm: int) -> tuple:
    """The cone the data are drawn from, enumerated once per (n, max_norm)."""
    return tuple(enumerate_cone(Cone.G, n, max_norm))


def _below(bits, n: int) -> int:
    """A draw from range(n), n > 0, through the getrandbits calls of
    ``random.Random._randbelow``: n.bit_length() bits until one is < n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample(rng: random.Random, population, k: int) -> list:
    """``rng.sample(population, k)`` without its checks.  Up to sample's set
    size it draws here, from a pool of the whole population, through the
    same getrandbits calls at less cost; past it, rng.sample draws."""
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        return rng.sample(population, k)
    bits = rng.getrandbits
    pool = list(population)
    result = []
    for i in range(k):
        j = _below(bits, n - i)
        result.append(pool[j])
        pool[j] = pool[n - i - 1]
    return result


def random_whittaker_data(
    rng: random.Random, n: int, max_norm: int = 2, max_entries: int = 4
) -> WhittakerData:
    """Nonzero data supported on dominant coweights of sup norm <= max_norm.
    Each d(lam) has one or two v-monomials of exponent in -2..2, each
    coefficient drawn as ``random_fraction`` draws it and written straight
    into the flat store: its numerator and denominator in lowest terms, all
    of them over one lcm.  The data are those that rng.randint, rng.sample
    and rng.choice would draw.  The support is drawn from the enumerated
    cone, so it needs no second check."""
    bits = rng.getrandbits
    cone = _cone(n, max_norm)
    count = 1 + _below(bits, min(max_entries, len(cone)))
    drawn = []
    for lam in _sample(rng, cone, count):
        for e in _sample(rng, _V_EXPONENTS, 1 + _below(bits, 2)):
            sign = -1 if _below(bits, 2) else 1
            a, b = 1 + _below(bits, 7), 1 + _below(bits, 7)
            g = math.gcd(a, b)
            drawn.append((lam, e, sign * a // g, b // g))
    den = math.lcm(*[b for _, _, _, b in drawn])
    terms = [(lam, e, a * (den // b)) for lam, e, a, b in drawn]
    return WhittakerData._of(SymLaurent._of_terms(n, terms, den))
