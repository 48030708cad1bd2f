"""GL Whittaker values, data tables, and the three raising operators."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from paramodular.characters import sp_character, sp_character_value
from paramodular.coweights import Cone, enumerate_cone, is_dominant, trace
from paramodular.rings import SymLaurent, VLaurent, poly_div_exact
from paramodular.sampling import random_whittaker_data
from paramodular.whittaker import (
    WhittakerData,
    eta_data,
    gl_modulus_exponent,
    gl_whittaker,
    so_modulus_exponent,
    spherical_so_data,
    theta_data,
    theta_prime_data,
)

from laurent_oracles import is_homogeneous

ONE = VLaurent.one()
Q = VLaurent.q_power(1)


def gl2_whittaker_oracle(lam: tuple[int, int]) -> SymLaurent:
    """Rank-two alternant ratio computed by explicit exact division."""
    a, b = lam
    num = SymLaurent.monomial(2, (a + 1, b)) - SymLaurent.monomial(2, (b, a + 1))
    den = SymLaurent.monomial(2, (1, 0)) - SymLaurent.monomial(2, (0, 1))
    ratio = poly_div_exact(num, den)
    return SymLaurent.constant(2, VLaurent.v_power(-(a - b))) * ratio


def test_gl_whittaker_matches_alternant_oracle():
    for gap in range(7):
        for low in (-2, 0, 1):
            lam = (low + gap, low)
            assert gl_whittaker(lam, 2) == gl2_whittaker_oracle(lam), lam


def test_gl_modulus_exponent_values():
    assert gl_modulus_exponent((2, 1), 2) == 1
    assert gl_modulus_exponent((1, 0, 0), 3) == 2
    assert gl_modulus_exponent((3,), 1) == 0
    assert gl_modulus_exponent((1, 1), 2) == 0


def test_gl_whittaker_vanishes_off_cone():
    assert gl_whittaker((0, 1), 2) == SymLaurent.zero(2)
    assert gl_whittaker((1, 0, 2), 3) == SymLaurent.zero(3)
    with pytest.raises(ValueError):
        gl_whittaker((1, 0), 3)


def test_homogeneity_check():
    # X_i -> c X_i scales the value by c^{trace(lam)}
    for lam in [(0, 0), (2, 0), (3, 1), (2, -1)]:
        assert is_homogeneous(gl_whittaker(lam, 2), trace(lam)), lam
    assert is_homogeneous(gl_whittaker((2, 1, 0), 3), trace((2, 1, 0)))


def test_whittaker_data_validation():
    with pytest.raises(ValueError):
        WhittakerData(2, {(1, -1): ONE})
    with pytest.raises(ValueError):
        WhittakerData(2, {(0, 1): ONE})
    with pytest.raises(ValueError):
        WhittakerData(2, {(1, 0, 0): ONE})
    with pytest.raises(ValueError):
        WhittakerData(0)
    # zero values are dropped at construction
    d = WhittakerData(2, {(1, 0): VLaurent.zero(), (1, 1): Q})
    assert d.support == [(1, 1)]
    assert d.get((1, 0)) == VLaurent.zero()
    assert d.get((0, -5)) == VLaurent.zero()
    assert d.max_trace() == 2


def test_the_cone_is_checked_on_the_support_of_nonzero_values():
    # a nonzero value outside the cone is rejected, also among valid ones
    for n, lam in ((1, (-1,)), (2, (0, 1)), (2, (1, -1)), (3, (2, 3, 1)), (3, (1, 1, -1))):
        for values in ({lam: ONE}, {lam: 2, (0,) * n: ONE}):
            with pytest.raises(ValueError, match="outside the dominant cone"):
                WhittakerData(n, values)
    # a zero value outside the cone is dropped with the term
    d = WhittakerData(2, {(0, 1): VLaurent.zero(), (1, -1): 0, (2, 0): Fraction(0), (1, 0): Q})
    assert d.support == [(1, 0)] and d.get((0, 1)) == VLaurent.zero()
    assert WhittakerData(3, {(0, 0, 1): VLaurent.zero()}).support == []
    # the support, read through the trace index, is the weights of items()
    rng = random.Random("support-from-index")
    for n in (1, 2, 3):
        moves = (eta_data, theta_data, theta_prime_data) if n == 2 else (eta_data,)
        for _ in range(5):
            d = random_whittaker_data(rng, n, max_norm=3, max_entries=8)
            for data in (d, *(move(d) for move in moves), d - d):
                assert data.support == [lam for lam, _ in data.items()]


def test_whittaker_data_arithmetic_and_json():
    d = WhittakerData(2, {(0, 0): ONE, (1, 0): Q})
    e = WhittakerData(2, {(1, 0): -Q, (2, 1): ONE})
    total = d + e
    assert total.support == [(0, 0), (2, 1)]
    assert (total - e) == d
    doubled = d.scale(2)
    assert doubled.get((1, 0)) == Q + Q
    assert d.scale(0) == WhittakerData(2)
    assert WhittakerData.from_json(d.to_json()) == d
    d3 = WhittakerData(3, {(0, 0, 0): ONE})
    with pytest.raises(ValueError):
        d + d3
    with pytest.raises(ValueError):
        d - d3
    assert d != d3


@pytest.mark.parametrize(
    "field, data",
    [
        ("n", {"n": 2.0, "entries": []}),
        ("n", {"n": True, "entries": []}),
        ("n", {"n": "2", "entries": []}),
        ("entries[0]", {"n": 2, "entries": [{"lambda": [1.5, 0], "value": {"0": "1"}}]}),
        ("entries[0]", {"n": 1, "entries": [{"lambda": [True], "value": {"0": "1"}}]}),
        ("entries[0]", {"n": 1, "entries": [{"lambda": ["1"], "value": {"0": "1"}}]}),
        ("entries[0]", {"n": 1, "entries": [{"lambda": [1], "value": {"0": 0.1}}]}),
        ("entries[0]", {"n": 1, "entries": [{"lambda": [1], "value": {"1_0": "1"}}]}),
        ("entries[0]", {"n": 1, "entries": [{"lambda": [1], "value": {"1": "1", "01": "2"}}]}),
        (
            "entries[1]",
            {
                "n": 1,
                "entries": [
                    {"lambda": [1], "value": {"0": "1"}},
                    {"lambda": [1], "value": {"0": "2"}},
                ],
            },
        ),
    ],
    ids=[
        "n-float",
        "n-bool",
        "n-str",
        "lambda-float",
        "lambda-bool",
        "lambda-str",
        "coeff-float",
        "exponent-separator",
        "exponent-leading-zero",
        "lambda-repeated",
    ],
)
def test_whittaker_data_json_takes_only_exact_integers(field, data):
    with pytest.raises(ValueError, match=rf"bad Whittaker data at {re.escape(field)}:"):
        WhittakerData.from_json(data)


def test_so_modulus_exponent():
    assert so_modulus_exponent((1,), 1) == 1
    assert so_modulus_exponent((1, 0), 2) == 3
    assert so_modulus_exponent((1, 1), 2) == 4
    assert so_modulus_exponent((1, 0, 0), 3) == 5


def test_spherical_data_values():
    beta = (Fraction(2),)
    d = spherical_so_data(beta, 1, 3)
    assert d.get((0,)) == ONE
    # chi_(1)(beta) = beta + 1/beta at rank one, scaled by v^{-1}
    expected = VLaurent({-1: Fraction(2) + Fraction(1, 2)})
    assert d.get((1,)) == expected
    with pytest.raises(ValueError):
        spherical_so_data((Fraction(0),), 1, 2)
    with pytest.raises(ValueError):
        spherical_so_data(beta, 2, 2)


def test_spherical_data_rank_two_support():
    """The data are filled through trace <= cutoff, the weights a series
    truncated at Y-degree cutoff reads."""
    d = spherical_so_data((Fraction(2), Fraction(3)), 2, 2)
    assert d.get((0, 0)) == ONE
    assert (1, 1) in d.support and (2, 0) in d.support
    assert (2, 1) not in d.support
    assert all(sum(lam) <= 2 for lam in d.support)


def test_spherical_data_matches_the_symbolic_characters():
    """Oracle: the data built weight by weight from the symbolic Weyl
    character, chi_lam(beta) v^-w on every dominant weight of trace <=
    cutoff where the character does not vanish, with the same support."""
    points = {
        1: [(Fraction(-5, 7),), (Fraction(3),)],
        # at beta_2 = -beta_1 the characters of odd trace vanish
        2: [(Fraction(-2, 7), Fraction(5, 6)), (Fraction(2, 7), Fraction(-2, 7))],
        3: [(Fraction(-3, 7), Fraction(4, 5), Fraction(-7, 2))],
        # up to four nonzero parts: rows of shift down to -2, which read h
        # at negative degrees
        4: [(Fraction(2, 3), Fraction(-5, 4), Fraction(3), Fraction(-1, 6))],
    }
    vanished = 0
    for n, betas in points.items():
        for beta in betas:
            for cutoff in range(9 if n < 4 else 6):
                weights = [lam for lam in enumerate_cone(Cone.G, n, cutoff) if trace(lam) <= cutoff]
                want = {}
                for lam in weights:
                    x = sp_character(lam, n).evaluate(beta, Fraction(1))
                    if x:
                        want[lam] = VLaurent({-so_modulus_exponent(lam, n): x})
                d = spherical_so_data(beta, n, cutoff)
                assert d == WhittakerData(n, want), (n, beta, cutoff)
                assert d.support == sorted(want)
                vanished += len(weights) - len(want)
    assert vanished


def test_spherical_data_equal_the_per_weight_assembly():
    """The one-pass integer build gives the store, denominator and bound of
    the data assembled weight by weight from sp_character_value, also at
    points with beta_i = +-1 or beta_i = beta_j^(+-1), where characters
    vanish and must leave no term."""
    points = {
        1: [(1,), (-1,), (Fraction(-5, 7),)],
        2: [(1, -1), (2, Fraction(1, 2)), (Fraction(3, 4), Fraction(3, 4)), (-1, -1), (2, -2)],
        3: [(1, 1, 1), (Fraction(2, 3), Fraction(3, 2), -1), (3, Fraction(-1, 3), Fraction(5, 2))],
        4: [(1, -1, Fraction(2, 5), Fraction(5, 2)), (2, 3, Fraction(1, 2), Fraction(-4, 3))],
    }
    vanished = 0
    for n, betas in points.items():
        for beta in betas:
            beta = tuple(map(Fraction, beta))
            for cutoff in range(9):
                want = {}
                for lam in enumerate_cone(Cone.G, n, cutoff, max_trace=cutoff):
                    x = sp_character_value(lam, beta)
                    if x:
                        want[lam] = VLaurent({-so_modulus_exponent(lam, n): x})
                    vanished += not x
                gen = SymLaurent(n, want)
                got = spherical_so_data(beta, n, cutoff).gen
                assert (got.num, got.den, got._bound) == (gen.num, gen.den, gen._bound)
    assert vanished


def test_spherical_data_do_not_depend_on_earlier_builds():
    """The weight table is shared by every build of one rank and cutoff:
    a build gives the same store, denominator and bound before and after
    builds at other ranks, cutoffs and points.  A negative cutoff gives
    empty data."""
    beta = (Fraction(3, 4), Fraction(-5, 2), Fraction(7, 3))

    def build(beta, n, cutoff):
        gen = spherical_so_data(beta, n, cutoff).gen
        return gen.num, gen.den, gen._bound

    first = build(beta, 3, 5)
    for n, cutoff in ((1, 7), (2, 5), (3, 4), (3, 6), (4, 5), (3, 5)):
        build((Fraction(-2, 9), Fraction(5), Fraction(1, 4), Fraction(6, 7))[:n], n, cutoff)
        assert build(beta, 3, 5) == first
    for n in (1, 3):
        assert spherical_so_data(beta[:n], n, -1) == WhittakerData(n)
        assert spherical_so_data(beta[:n], n, -1).support == []


def delta(lam: tuple[int, int]) -> WhittakerData:
    return WhittakerData(2, {lam: ONE})


def test_theta_on_point_masses():
    assert theta_data(delta((0, 0))) == delta((1, 0))
    image = theta_data(delta((1, 0)))
    assert image == WhittakerData(2, {(2, 0): ONE, (1, 1): Q})


def test_theta_prime_on_point_masses():
    image = theta_prime_data(delta((0, 0)))
    assert image == WhittakerData(2, {(0, 0): Q, (1, 1): ONE})
    image = theta_prime_data(delta((1, 1)))
    assert image == WhittakerData(2, {(1, 1): Q, (2, 2): ONE})


def test_eta_shifts_support():
    d = WhittakerData(2, {(0, 0): ONE, (2, 1): Q})
    assert eta_data(d) == WhittakerData(2, {(1, 1): ONE, (3, 2): Q})
    d3 = WhittakerData(3, {(1, 0, 0): ONE})
    assert eta_data(d3) == WhittakerData(3, {(2, 1, 1): ONE})


# each move with its pointwise rule: (shift s, coefficient c) pairs of
# result(lam) = sum c * d(lam - s) on the dominant cone, 0 off it
MOVE_RULES = [
    (theta_data, 2, [((1, 0), ONE), ((0, 1), Q)]),
    (theta_prime_data, 2, [((1, 1), ONE), ((0, 0), Q)]),
    (eta_data, 2, [((1, 1), ONE)]),
    (eta_data, 3, [((1, 1, 1), ONE)]),
]


@pytest.mark.parametrize("move,n,rule", MOVE_RULES)
def test_moves_match_their_pointwise_rules(move, n, rule):
    for trial in range(20):
        d = random_whittaker_data(random.Random(f"moves:{n}:{trial}"), n)
        image = move(d)
        # the box covers every shifted support point and a margin off the cone
        for lam in itertools.product(range(-1, 5), repeat=n):
            expected = VLaurent.zero()
            if is_dominant(lam, Cone.G):
                for shift, c in rule:
                    expected = expected + c * d.get(tuple(a - b for a, b in zip(lam, shift)))
            assert image.get(lam) == expected, (move.__name__, d, lam)


def test_rank_restriction_on_theta_operators():
    d3 = WhittakerData(3, {(0, 0, 0): ONE})
    with pytest.raises(ValueError):
        theta_data(d3)
    with pytest.raises(ValueError):
        theta_prime_data(d3)


def test_operators_commute_on_samples():
    d = WhittakerData(2, {(0, 0): ONE, (1, 0): Q, (1, 1): ONE})
    assert theta_data(theta_prime_data(d)) == theta_prime_data(theta_data(d))
    assert eta_data(theta_data(d)) == theta_data(eta_data(d))
    assert eta_data(theta_prime_data(d)) == theta_prime_data(eta_data(d))


def test_trace_index_agrees_with_items():
    """The trace index, its terms read back over gen.den, holds the pairs of
    items() of each trace in the same order, v-exponents ascending, before
    and after every move."""
    rng = random.Random("trace-index")
    for n in (1, 2, 3):
        moves = (eta_data, theta_data, theta_prime_data) if n == 2 else (eta_data,)
        for _ in range(5):
            d = random_whittaker_data(rng, n, max_norm=2, max_entries=6)
            for data in (d, *(move(d) for move in moves)):
                index = data._trace_index()
                assert data._trace_index() is index
                top = data.max_trace()
                for ell in range(-1, top + 2):
                    got = []
                    for lam, terms in index.get(ell, ()):
                        exps = [e for e, _ in terms]
                        assert exps == sorted(set(exps))
                        assert all(type(x) is int and x for _, x in terms)
                        got.append((lam, VLaurent({e: Fraction(x, data.gen.den) for e, x in terms})))
                    want = [(lam, x) for lam, x in data.items() if trace(lam) == ell]
                    assert got == want
                assert set(index) == {trace(lam) for lam in data.support}
