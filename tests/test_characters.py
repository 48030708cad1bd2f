"""Schur polynomials, symplectic Weyl characters, orbit sums."""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from paramodular.characters import (
    _demazure,
    _det,
    orbit_sum,
    schur,
    schur_oracle,
    sp_character,
    sp_character_value,
    sp_dimension,
)
from paramodular.coweights import Cone, enumerate_cone, is_dominant, tilde
from paramodular.oldforms import so4_satake_table
from paramodular.rings import SymLaurent, VLaurent

from character_oracles import (
    complete_homogeneous,
    demazure_step_by_division,
    gl_alternant,
    jacobi_trudi_schur,
    leibniz_int_det,
    odd_permutation,
    sp_alternant,
    sp_character_by_division,
)
from laurent_oracles import is_homogeneous, is_symmetric, unpacked

ONE = VLaurent.one()


def test_complete_homogeneous_small():
    assert complete_homogeneous(2, 0) == SymLaurent.one(2)
    assert complete_homogeneous(2, 1) == SymLaurent(2, {(1, 0): ONE, (0, 1): ONE})
    assert complete_homogeneous(2, 2) == SymLaurent(
        2, {(2, 0): ONE, (1, 1): ONE, (0, 2): ONE}
    )
    assert complete_homogeneous(1, -1) == SymLaurent.zero(1)


def test_schur_small_frozen():
    assert schur((0, 0), 2) == SymLaurent.one(2)
    assert schur((1, 0), 2) == SymLaurent(2, {(1, 0): ONE, (0, 1): ONE})
    assert schur((1, 1), 2) == SymLaurent.monomial(2, (1, 1))
    assert schur((2, 1), 2) == SymLaurent(2, {(2, 1): ONE, (1, 2): ONE})
    # single-variable case collapses to a monomial
    assert schur((3,), 1) == SymLaurent.monomial(1, (3,))


def test_schur_negative_entries_via_determinant_twist():
    expected = SymLaurent(2, {(1, -1): ONE, (0, 0): ONE, (-1, 1): ONE})
    assert schur((1, -1), 2) == expected
    assert schur((0, -1), 2) == SymLaurent(2, {(0, -1): ONE, (-1, 0): ONE})


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_schur_matches_the_jacobi_trudi_oracle(r):
    # every weakly decreasing weight with entries in -3..2: 6, 21, 56, 126
    lams = _decreasing(range(-3, 3), r)
    assert len(lams) == math.comb(r + 5, r)
    for lam in lams:
        assert schur(lam, r) == jacobi_trudi_schur(lam, r), lam


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sp_character_matches_the_division_oracle(n):
    for lam in enumerate_cone(Cone.G, n, 3):
        assert sp_character(lam, n) == sp_character_by_division(lam, n), lam


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_schur_times_the_vandermonde_is_the_alternant(r):
    # the bialternant identity s_lam a_delta = a_{lam+delta}, every weakly
    # decreasing weight with entries in -1..2
    delta = [r - 1 - i for i in range(r)]
    for lam in _decreasing(range(-1, 3), r):
        lifted = [x + d for x, d in zip(lam, delta)]
        assert schur(lam, r) * gl_alternant(delta, r) == gl_alternant(lifted, r), lam


def _inverted_last(a):
    """a with its last variable inverted."""
    return SymLaurent(a.r, {(*e[:-1], -e[-1]): x for e, x in a.c.items()})


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_schur_is_weyl_invariant(r):
    # every weakly decreasing weight with entries in -2..2, negative ones
    # included; the tracked bound covers every key
    for lam in _decreasing(range(-2, 3), r):
        a = schur(lam, r)
        assert is_symmetric(a), lam
        unpacked(a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sp_character_is_weyl_invariant(n):
    # permutations and the inversion of x_n generate the type C Weyl group
    for lam in _decreasing(range(4), n):
        a = sp_character(lam, n)
        assert is_symmetric(a) and _inverted_last(a) == a, lam
        unpacked(a)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_demazure_step_matches_its_definition(r):
    """pi_i on one monomial X^mu against its defining quotient, for every
    mu with entries in -3..3 and every letter, the long root r - 1 of type
    C included: each of the branches m >= 0, m = -1 and m <= -2 of
    m = <mu, alpha^vee> is met for a short root (r >= 2) and for the long
    one."""
    branches = set()
    for mu in itertools.product(range(-3, 4), repeat=r):
        for i in range(r):
            long = i == r - 1
            m = mu[i] if long else mu[i] - mu[i + 1]
            branches.add((long, max(min(m, 0), -2)))
            got = _demazure(mu, (i,))
            assert got == demazure_step_by_division(mu, i), (mu, i)
            unpacked(got)
    assert branches == {(long, m) for long in {True, r == 1} for m in (-2, -1, 0)}


# The packed-field guard of the symbolic characters: schur raises
# OverflowError iff 2 max|lam_i + r - 1 - i| > 32767 (|lam_1| > 32767 at
# r = 1), sp_character iff 3 (lam_1 + n) > 32767.  A weight that passes is
# listed only where its character is small: a string at r = 2 or n = 1, a
# monomial at r = 3.
OVERFLOW_BOUNDARY = [
    (schur, (32767,), True),
    (schur, (32768,), False),
    (schur, (-32767,), True),
    (schur, (-32768,), False),
    (schur, (16382, 0), True),
    (schur, (16383, 0), False),
    (schur, (0, -16383), True),
    (schur, (0, -16384), False),
    (schur, (16381, 16381, 16381), True),
    (schur, (16382, 16382, 16382), False),
    (schur, (16382, 0, 0), False),
    (schur, (-16383, -16383, -16383), True),
    (schur, (-16384, -16384, -16384), False),
    (sp_character, (10921,), True),
    (sp_character, (10922,), False),
    (sp_character, (10921, 0), False),
    (sp_character, (10921, 10921), False),
    (sp_character, (10920, 0, 0), False),
    (sp_character, (10920, 10920, 10920), False),
]


@pytest.mark.parametrize("fn, lam, fits", OVERFLOW_BOUNDARY)
def test_symbolic_characters_overflow_at_the_packed_field_guard(fn, lam, fits):
    if fits:
        assert fn(lam, len(lam))
    else:
        with pytest.raises(OverflowError):
            fn(lam, len(lam))


def _unit(r, i, s=1):
    """The exponent tuple s e_i in r variables."""
    return tuple(s if k == i else 0 for k in range(r))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_gl_weyl_factors_multiply_to_the_vandermonde_alternant(r):
    # the oracles' a_delta against prod_{i<j} (X_i - X_j)
    out = SymLaurent.one(r)
    for i, j in itertools.combinations(range(r), 2):
        out = out * (SymLaurent.monomial(r, _unit(r, i)) - SymLaurent.monomial(r, _unit(r, j)))
    assert out == gl_alternant([r - 1 - i for i in range(r)], r)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sp_weyl_factors_multiply_to_the_weyl_denominator(n):
    # the divisor of sp_character_by_division against prod_i (x_i - x_i^-1)
    # prod_{i<j} (x_i - x_j)(1 - x_i^-1 x_j^-1)
    def x(*exps):
        return SymLaurent.monomial(n, exps)

    out = SymLaurent.one(n)
    for i in range(n):
        out = out * (x(*_unit(n, i)) - x(*_unit(n, i, -1)))
    for i, j in itertools.combinations(range(n), 2):
        pair = map(operator.add, _unit(n, i, -1), _unit(n, j, -1))
        out = out * (x(*_unit(n, i)) - x(*_unit(n, j))) * (SymLaurent.one(n) - x(*pair))
    assert out == sp_alternant([n - i for i in range(n)], n)


def _leibniz(k):
    """Every permutation of range(k), in lexicographic order, with whether
    it is odd, by recursion: a permutation starting with i puts i before
    the i smaller entries, so its parity is that of i plus that of the
    rest, a permutation of the table for k - 1 relabelled monotonely."""
    if k == 0:
        return [(False, ())]
    return [
        (odd != (i % 2 == 1), (i, *(j + (j >= i) for j in rest)))
        for i in range(k)
        for odd, rest in _leibniz(k - 1)
    ]


@pytest.mark.parametrize("k", range(8))
def test_leibniz_table_matches_the_inversion_count(k):
    # the oracles' parity rule against the recursive sign table
    table = _leibniz(k)
    assert [perm for _, perm in table] == list(itertools.permutations(range(k)))
    assert [odd for odd, _ in table] == [odd_permutation(perm) for _, perm in table]


# matrices whose elimination meets a zero pivot, at the first step or
# after one, or has none to swap in
BAREISS_CASES = [
    [],
    [[0]],
    [[-7]],
    [[0, 1], [1, 0]],
    [[0, 2, 3], [0, 5, 1], [4, 1, 1]],
    [[1, 2, 3], [2, 4, 7], [5, 1, 1]],
    [[1, 2, 3], [2, 4, 6], [5, 1, 1]],
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
    [[1, 2], [0, 0]],
    [[2, 1, 0, 0], [4, 2, 1, 0], [0, 0, 0, 1], [1, 0, 3, 0]],
]


@pytest.mark.parametrize("matrix", BAREISS_CASES)
def test_bareiss_det_matches_the_leibniz_oracle_on_pivot_cases(matrix):
    rows = [list(row) for row in matrix]
    assert _det(matrix) == leibniz_int_det(matrix)
    assert matrix == rows  # the argument is left as it was


def test_bareiss_det_matches_the_leibniz_oracle():
    """Random integer matrices of size k <= 6, mostly zeros (as Jacobi-Trudi
    matrices are below their band), some made singular by a repeated or
    zero row, some with a zero leading pivot."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entry = st.sampled_from([0, 0, 0, 1, -1, 2]) | st.integers(min_value=-10**6, max_value=10**6)

    @st.composite
    def matrices(draw):
        k = draw(st.integers(min_value=0, max_value=6))
        rows = [[draw(entry) for _ in range(k)] for _ in range(k)]
        if k > 1:
            i, j = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=2, max_size=2))
            shape = draw(st.sampled_from(["plain", "repeated", "zero-row", "zero-pivot"]))
            if shape == "repeated" and i != j:
                rows[i] = list(rows[j])
            elif shape == "zero-row":
                rows[i] = [0] * k
            elif shape == "zero-pivot":
                rows[0][0] = 0
        return rows

    @hyp.settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @hyp.given(matrices())
    def check(rows):
        assert _det(rows) == leibniz_int_det(rows)

    check()


@pytest.mark.parametrize("k", range(7))
def test_det_matches_the_leibniz_oracle_at_every_size(k):
    """The written-out forms (k <= 3) and elimination (k >= 4) against the
    Leibniz sum, on random ints of both signs, a zero leading pivot, a zero
    first column, a zero row and a row that is a combination of the
    others; the argument is left as it was."""
    rng = random.Random(f"det-{k}")

    def draw():
        return [[rng.randint(-10**4, 10**4) for _ in range(k)] for _ in range(k)]

    cases = [draw() for _ in range(30)]
    if k:
        pivot, column, zero_row = draw(), draw(), draw()
        pivot[0][0] = 0
        for row in column:
            row[0] = 0
        zero_row[rng.randrange(k)] = [0] * k
        cases += [pivot, column, zero_row]
    if k > 1:
        combination = draw()
        weights = [rng.randint(-3, 3) for _ in range(k - 1)]
        combination[-1] = [sum(map(operator.mul, weights, col)) for col in zip(*combination[:-1])]
        cases.append(combination)
    for matrix in cases:
        rows = [list(row) for row in matrix]
        assert _det(matrix) == leibniz_int_det(rows), matrix
        assert matrix == rows


def test_schur_rejects_non_dominant():
    with pytest.raises(ValueError):
        schur((1, 2), 2)


def test_schur_matches_tableau_oracle_spot():
    for lam in [(0, 0), (2, 0), (2, 1), (3, 1), (2, 2)]:
        assert schur(lam, 2) == schur_oracle(lam, 2), lam
    for lam in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 1)]:
        assert schur(lam, 3) == schur_oracle(lam, 3), lam


def test_schur_is_symmetric_and_homogeneous():
    a = schur((3, 1), 2)
    assert is_symmetric(a)
    assert is_homogeneous(a, 4)


def test_sp_character_frozen_rank_two():
    std = SymLaurent(2, {(1, 0): ONE, (0, 1): ONE, (-1, 0): ONE, (0, -1): ONE})
    assert sp_character((0, 0), 2) == SymLaurent.one(2)
    assert sp_character((1, 0), 2) == std
    five = SymLaurent(
        2,
        {(1, 1): ONE, (1, -1): ONE, (-1, 1): ONE, (-1, -1): ONE, (0, 0): ONE},
    )
    assert sp_character((1, 1), 2) == five


def test_sp_character_dimension_at_all_ones():
    ones2 = (Fraction(1), Fraction(1))
    ones3 = (Fraction(1), Fraction(1), Fraction(1))
    for lam in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)]:
        dim = sp_character(lam, 2).evaluate(ones2, Fraction(1))
        assert dim == sp_dimension(lam, 2), lam
    for lam in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)]:
        dim = sp_character(lam, 3).evaluate(ones3, Fraction(1))
        assert dim == sp_dimension(lam, 3), lam


def test_sp_dimension_frozen():
    assert sp_dimension((1, 0), 2) == 4
    assert sp_dimension((1, 1), 2) == 5
    assert sp_dimension((2, 0), 2) == 10
    assert sp_dimension((1, 0, 0), 3) == 6
    assert sp_dimension((1, 1, 0), 3) == 14
    assert sp_dimension((1, 1, 1), 3) == 14


# Satake points per rank: integer, proper-fraction, negative and
# below-one-in-modulus entries, all off the Weyl denominator's zero locus
SP_POINTS = {
    1: [(Fraction(2),), (Fraction(-3, 2),), (Fraction(1, 3),), (Fraction(-2, 7),)],
    2: [
        (Fraction(2), Fraction(3, 2)),
        (Fraction(-2), Fraction(3)),
        (Fraction(1, 3), Fraction(-5, 4)),
        (Fraction(-2, 5), Fraction(-3, 7)),
    ],
    3: [
        (Fraction(2), Fraction(-3), Fraction(1, 4)),
        (Fraction(-1, 2), Fraction(5, 3), Fraction(-2, 7)),
    ],
}


def test_sp_character_value_matches_symbolic():
    for n, points in SP_POINTS.items():
        for lam in enumerate_cone(Cone.G, n, 3):
            sym = sp_character(lam, n)
            for beta in points:
                got = sp_character_value(lam, beta)
                assert got == sym.evaluate(beta, Fraction(1)), (lam, beta)


def test_sp_character_value_is_exact_at_integer_points():
    # integer Satake parameters used to leak floats through b ** -e
    got = sp_character_value((1, 0), (2, 3))
    assert isinstance(got, Fraction)
    assert got == Fraction(35, 6)


def test_sp_character_value_rejects_degenerate_points():
    # only a zero coordinate is degenerate: beta^-1 must exist
    with pytest.raises(ValueError, match="zero coordinate"):
        sp_character_value((1, 0), (Fraction(0), Fraction(2)))
    # the Weyl denominator vanishes at these points, where the alternant
    # ratio used to raise; the Jacobi-Trudi determinant needs no division
    for beta in [(1, 2), (2, Fraction(1, 2)), (3, 3), (3, Fraction(1, 3))]:
        beta = tuple(map(Fraction, beta))
        for lam in enumerate_cone(Cone.G, 2, 3):
            want = sp_character(lam, 2).evaluate(beta, Fraction(1))
            assert sp_character_value(lam, beta) == want, (lam, beta)


def test_sp_character_and_value_reject_the_same_weights():
    # the numeric character used to answer non-dominant weights silently:
    # at beta = (2, 3), (0, 1) gave 0 and (1, -3) gave -28/3
    for lam in [(0, 1), (1, -3)]:
        with pytest.raises(ValueError, match="non-negative"):
            sp_character_value(lam, (2, 3))
    for n in range(1, 4):
        beta = SP_POINTS[n][0]
        for k in range(n - 1, n + 2):
            for lam in itertools.product(range(-2, 3), repeat=k):
                if k == n and is_dominant(lam, Cone.G):
                    assert sp_character_value(lam, beta) == sp_character(lam, n).evaluate(
                        beta, Fraction(1)
                    ), (lam, beta)
                    continue
                with pytest.raises(ValueError) as symbolic:
                    sp_character(lam, n)
                with pytest.raises(ValueError) as numeric:
                    sp_character_value(lam, beta)
                assert str(numeric.value) == str(symbolic.value), lam


def test_sp_character_value_table_follows_the_point():
    """The complete homogeneous sums come from a table built once per
    point: interleaved points, one of them on the Weyl denominator's zero
    locus and one with a zero coordinate, must each get their own values,
    and the zero one must raise every time."""
    good = [SP_POINTS[2][0], (Fraction(3), Fraction(1, 3)), SP_POINTS[2][3]]
    lams = enumerate_cone(Cone.G, 2, 3)
    want = {
        (lam, beta): sp_character(lam, 2).evaluate(beta, Fraction(1))
        for lam in lams
        for beta in good
    }
    bad = (Fraction(0), Fraction(2))
    for lam in lams:
        for beta in (good[0], bad, good[1], good[2], bad, good[0], good[1]):
            if beta is bad:
                with pytest.raises(ValueError, match="zero coordinate"):
                    sp_character_value(lam, bad)
            else:
                assert sp_character_value(lam, beta) == want[lam, beta], (lam, beta)
    # ints and Fractions name the same point, in either order
    for lam in lams:
        as_ints = sp_character_value(lam, (2, 3))
        as_fractions = sp_character_value(lam, (Fraction(2), Fraction(3)))
        assert as_ints == as_fractions == sp_character(lam, 2).evaluate((2, 3), Fraction(1))
        assert isinstance(as_ints, Fraction)
        assert sp_character_value(lam, (2, 3)) == as_ints


def test_sp_character_value_matches_symbolic_at_degenerate_points():
    """Random nonzero rational points of rank n <= 4 whose coordinates
    are often +-1 or inverses and repeats of each other: the Jacobi-Trudi
    value equals the symbolic Weyl ratio at the point."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)

    @st.composite
    def points(draw):
        n = draw(st.integers(min_value=1, max_value=4))
        beta = [draw(st.sampled_from([Fraction(1), Fraction(-1)]) | nonzero)]
        for _ in range(n - 1):
            b = draw(st.sampled_from(beta))
            beta.append(draw(st.sampled_from([b, 1 / b, -b]) | nonzero))
        return tuple(beta)

    @hyp.settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @hyp.given(points(), st.data())
    def check(beta, data):
        n = len(beta)
        lam = data.draw(st.sampled_from(enumerate_cone(Cone.G, n, 3)))
        want = sp_character(lam, n).evaluate(beta, Fraction(1))
        assert sp_character_value(lam, beta) == want

    check()


def test_so4_minuscule_characters():
    # the tabulated Satake images are q times the minuscule characters
    q = SymLaurent.constant(2, VLaurent.q_power(1))
    table = so4_satake_table()
    assert table[(1, 0)] == q * SymLaurent(
        2, {(1, 0): ONE, (0, 1): ONE, (-1, 0): ONE, (0, -1): ONE}
    )
    assert table[(1, 1)] == q * SymLaurent(
        2, {(1, 1): ONE, (0, 0): ONE, (-1, -1): ONE}
    )
    assert table[(1, -1)] == q * SymLaurent(
        2, {(1, -1): ONE, (0, 0): ONE, (-1, 1): ONE}
    )
    assert (2, 0) not in table


def test_orbit_sum_even_sign_changes_only():
    # rank-two rotation orbit of (1,1) has two elements, not four
    assert orbit_sum((1, 1), 2) == SymLaurent(2, {(1, 1): ONE, (-1, -1): ONE})
    assert orbit_sum((1, -1), 2) == SymLaurent(2, {(1, -1): ONE, (-1, 1): ONE})
    # together they fill out the full sign-change orbit
    full = SymLaurent(
        2, {(1, 1): ONE, (-1, -1): ONE, (1, -1): ONE, (-1, 1): ONE}
    )
    assert orbit_sum((1, 1), 2) + orbit_sum((1, -1), 2) == full
    assert orbit_sum((1, 0), 2) == SymLaurent(
        2, {(1, 0): ONE, (0, 1): ONE, (-1, 0): ONE, (0, -1): ONE}
    )
    assert orbit_sum((0, 0, 0), 3) == SymLaurent.one(3)


def test_orbit_sum_rank_three_size():
    a = orbit_sum((1, 1, 1), 3)
    # even sign flips of (1,1,1): flip none or any two coordinates
    assert len(a.c) == 4


def test_h_dominant_orbit_pair():
    # the type D cone element and its last-entry-negated partner
    assert tilde((2, 1)) == (2, -1)
    assert tilde((2, 0)) == (2, 0)


def test_ginzburg_specialize_drops_last_variable():
    # X_r = 0 keeps a Schur polynomial whose last weight entry is 0 and
    # kills it otherwise
    assert schur((2, 0), 2).substitute_last_zero() == schur((2,), 1)
    assert schur((2, 1), 2).substitute_last_zero() == SymLaurent.zero(1)


# Independent cross-checks by sympy: each character as a ratio of two
# determinants, both expanded by sympy and divided exactly as polynomials
# (skipped where sympy is missing).


def _sympy_quotient(sympy, xs, entry, exps, rho, den_shift, quo_shift):
    """det(entry(x_j, exps_i)) / det(entry(x_j, rho_i)) times P^quo_shift,
    P = x_1...x_k, by exact polynomial division: the denominator is
    multiplied by P^den_shift and the numerator by P^(den_shift +
    quo_shift), which clears negative powers from both and from the
    quotient.  The division must leave no remainder."""
    from sympy.polys.matrices import DomainMatrix

    k = len(xs)

    def det(es, shift):
        # column j times x_j^shift: the determinant times P^shift
        matrix = sympy.Matrix(
            k, k, lambda i, j: sympy.expand(entry(xs[j], es[i]) * xs[j] ** shift)
        )
        dm = DomainMatrix.from_Matrix(matrix)
        return sympy.Poly(dm.domain.to_sympy(dm.det()), *xs)

    quotient, remainder = sympy.div(det(exps, den_shift + quo_shift), det(rho, den_shift))
    assert remainder.is_zero
    return quotient


def _shifted_poly(sympy, xs, poly: SymLaurent, shift):
    """poly * (x_1...x_k)^shift as a sympy Poly (v-free polynomials only)."""
    terms = {}
    for e, value in poly.c.items():
        assert set(value.c) == {0}
        c = value.c[0]
        terms[tuple(k + shift for k in e)] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly.from_dict(terms, *xs)


def _decreasing(entries, k):
    return [
        lam
        for lam in itertools.product(entries, repeat=k)
        if list(lam) == sorted(lam, reverse=True)
    ]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_schur_matches_the_sympy_bialternant(r):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{r + 1}")
    for lam in _decreasing(range(-2, 3), r):
        # det(x_j^(lam_i + r - i)) / det(x_j^(r - i)), i = 1..r
        quotient = _sympy_quotient(
            sympy,
            xs,
            lambda x, e: x**e,
            [lam[i] + r - 1 - i for i in range(r)],
            [r - 1 - i for i in range(r)],
            den_shift=0,
            quo_shift=2,
        )
        assert quotient == _shifted_poly(sympy, xs, schur(lam, r), 2), lam


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sp_character_matches_the_sympy_weyl_ratio(n):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{n + 1}")
    for lam in _decreasing(range(3), n):
        # det(x_j^(l_i + n - i + 1) - x_j^-(l_i + n - i + 1)) / (same at lam = 0)
        quotient = _sympy_quotient(
            sympy,
            xs,
            lambda x, e: x**e - x**-e,
            [lam[i] + n - i for i in range(n)],
            [n - i for i in range(n)],
            den_shift=n,
            quo_shift=lam[0],
        )
        assert quotient == _shifted_poly(sympy, xs, sp_character(lam, n), lam[0]), lam
