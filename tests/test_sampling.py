"""Deterministic random generators used by the verification suites."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from paramodular.coweights import Cone, enumerate_cone, is_dominant
from paramodular.sampling import (
    _below,
    _sample,
    case_rng,
    random_beta,
    random_fraction,
    random_point,
    random_v,
    random_whittaker_data,
)
from paramodular.whittaker import WhittakerData

from sampling_oracles import random_vlaurent


def test_case_rng_is_deterministic_and_case_separated():
    a = case_rng(42, "suite:0")
    b = case_rng(42, "suite:0")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = case_rng(42, "suite:1")
    assert a.random() != c.random()


def test_random_fraction_bounds():
    rng = case_rng(1, "fractions")
    for _ in range(200):
        x = random_fraction(rng)
        assert isinstance(x, Fraction)
        assert abs(x.numerator) <= 7 and 1 <= x.denominator <= 7


def test_random_v_avoids_degenerate_values():
    rng = case_rng(2, "v")
    for _ in range(100):
        v = random_v(rng)
        assert v != 0 and abs(v) != 1


def test_random_beta_avoids_weyl_walls():
    rng = case_rng(3, "beta")
    for _ in range(50):
        beta = random_beta(rng, 3)
        assert len(beta) == 3
        for i, b in enumerate(beta):
            assert b != 0 and abs(b) != 1
            for c in beta[i + 1 :]:
                assert b != c and b * c != 1


def test_random_point_length():
    rng = case_rng(4, "point")
    point = random_point(rng, 4)
    assert len(point) == 4
    assert all(isinstance(x, Fraction) for x in point)


def test_random_whittaker_data_supports_dominant_cone():
    rng = case_rng(5, "data")
    for n in (2, 3):
        for _ in range(20):
            d = random_whittaker_data(rng, n)
            assert d.n == n
            for lam in d.support:
                assert is_dominant(lam, Cone.G)


def _assembled(rng, n, max_norm, max_entries):
    """The draw assembled from its public parts, one VLaurent per weight
    and the WhittakerData constructor with its cone check."""
    cone = list(enumerate_cone(Cone.G, n, max_norm))
    support = rng.sample(cone, rng.randint(1, min(max_entries, len(cone))))
    return WhittakerData(n, {lam: random_vlaurent(rng) for lam in support})


# every (max_norm, max_entries) that the suites and the tests draw with
DRAW_SIZES = [(2, 4), (1, 4), (2, 3), (2, 6), (3, 6), (3, 8)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_whittaker_data_matches_the_assembled_draw(n):
    for max_norm, max_entries in DRAW_SIZES:
        for seed in range(200):
            key = f"{n}:{max_norm}:{max_entries}"
            want = _assembled(case_rng(seed, key), n, max_norm, max_entries)
            got = random_whittaker_data(case_rng(seed, key), n, max_norm, max_entries)
            assert (got.gen.num, got.gen.den) == (want.gen.num, want.gen.den)
            assert got.gen._bound == want.gen._bound


def test_sample_and_below_make_the_draws_of_random():
    # every population size around sample's pool/set boundary (21, and
    # 21 + 4**ceil(log(3k, 4)) once k > 5), each on a fresh pair of
    # generators, so a branch taken at the wrong size draws differently
    for n in range(1, 100):
        for k in range(1, min(n, 12) + 1):
            key = f"sample:{n}:{k}"
            ours, theirs = case_rng(0, key), case_rng(0, key)
            population = tuple(range(100, 100 + n))
            assert _sample(ours, population, k) == theirs.sample(population, k)
            assert _below(ours.getrandbits, n) == theirs.randrange(n)
            assert ours.getstate() == theirs.getstate()


def test_sample_calls_random_sample_only_past_its_set_size():
    # equal draws catch the pool run past sample's set size, where sample
    # draws from a set, but not rng.sample called below it, where sample
    # runs the same pool; so the calls are counted: none up to the set size,
    # one past it
    for n in range(1, 100):
        for k in range(1, min(n, 12) + 1):
            rng, calls = case_rng(0, f"spy:{n}:{k}"), []

            def spy(population, size, rng=rng, calls=calls):
                calls.append(size)
                return random.Random.sample(rng, population, size)

            rng.sample = spy
            _sample(rng, tuple(range(n)), k)
            setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
            assert len(calls) == (1 if n > setsize else 0), (n, k)
