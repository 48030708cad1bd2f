"""Exact-arithmetic layer: Laurent coefficients, symmetric Laurent
polynomials, truncated series."""

from __future__ import annotations

from fractions import Fraction

import pytest

from paramodular.rings import (
    SymLaurent,
    TruncSeries,
    VLaurent,
    is_in_s0,
    is_symmetric,
    poly_div_exact,
    vlaurent_div_exact,
)


def test_vlaurent_basic_arithmetic():
    v = VLaurent.v_power(1)
    q = VLaurent.q_power(1)
    assert q == v * v
    assert (v + v) == VLaurent({1: 2})
    assert v - v == VLaurent.zero()
    assert not VLaurent.zero()
    assert (v + VLaurent.one()) * (v - VLaurent.one()) == q - 1


def test_vlaurent_negative_exponents_and_pow():
    w = VLaurent({-1: Fraction(1, 2), 2: 3})
    assert w**0 == VLaurent.one()
    assert w**3 == w * w * w
    assert w.min_exp() == -1 and w.max_exp() == 2


def test_vlaurent_scalar_coercion_in_eq():
    assert VLaurent({0: Fraction(5, 3)}) == Fraction(5, 3)
    assert VLaurent({0: 4}) == 4
    assert VLaurent.zero() == 0
    assert VLaurent.v_power(2) != 1


def test_vlaurent_evaluate():
    w = VLaurent({-2: 1, 1: Fraction(1, 3)})
    assert w.evaluate(Fraction(2)) == Fraction(1, 4) + Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        w.evaluate(Fraction(0))


def test_vlaurent_json_round_trip():
    w = VLaurent({-3: Fraction(2, 7), 0: -1, 5: Fraction(9)})
    assert VLaurent.from_json(w.to_json()) == w


def test_vlaurent_division_exact_and_inexact():
    num = VLaurent.v_power(2) - VLaurent.v_power(-2)
    den = VLaurent.v_power(1) - VLaurent.v_power(-1)
    assert vlaurent_div_exact(num, den) == VLaurent.v_power(1) + VLaurent.v_power(-1)
    with pytest.raises(ValueError):
        vlaurent_div_exact(VLaurent.v_power(1) + 1, VLaurent.v_power(1) - 1)


def test_symlaurent_product_with_inverse_variables():
    # (X1 + X2 + X1^-1 + X2^-1)(1 + X1 X2)
    a = SymLaurent(
        2,
        {
            (1, 0): VLaurent.one(),
            (0, 1): VLaurent.one(),
            (-1, 0): VLaurent.one(),
            (0, -1): VLaurent.one(),
        },
    )
    b = SymLaurent(2, {(0, 0): VLaurent.one(), (1, 1): VLaurent.one()})
    expected = SymLaurent(
        2,
        {
            (1, 0): VLaurent.from_scalar(2),
            (0, 1): VLaurent.from_scalar(2),
            (-1, 0): VLaurent.one(),
            (0, -1): VLaurent.one(),
            (2, 1): VLaurent.one(),
            (1, 2): VLaurent.one(),
        },
    )
    assert a * b == expected


def test_symlaurent_variable_count_mismatch():
    with pytest.raises(ValueError):
        SymLaurent.one(2) + SymLaurent.one(3)


def test_symlaurent_swap_and_invert():
    a = SymLaurent.monomial(3, (2, 1, 0))
    assert a.swap_vars(0, 2) == SymLaurent.monomial(3, (0, 1, 2))
    assert a.invert_vars((0,)) == SymLaurent.monomial(3, (-2, 1, 0))
    assert a.invert_all_vars() == SymLaurent.monomial(3, (-2, -1, 0))


def test_symlaurent_substitute_last_zero():
    a = SymLaurent(2, {(1, 0): VLaurent.one(), (1, 2): VLaurent.one()})
    assert a.substitute_last_zero() == SymLaurent.monomial(1, (1,))
    bad = SymLaurent.monomial(2, (0, -1))
    with pytest.raises(ValueError):
        bad.substitute_last_zero()


def test_symlaurent_homogeneity_and_degrees():
    a = SymLaurent(2, {(2, 1): VLaurent.one(), (0, 3): VLaurent.one()})
    assert a.is_homogeneous(3)
    assert a.total_degrees() == {3}
    assert not (a + SymLaurent.one(2)).is_homogeneous()
    assert a.min_var_exp() == 0
    assert SymLaurent.monomial(2, (-1, 4)).min_var_exp() == -1


def test_symlaurent_evaluate_matches_hand_expansion():
    a = SymLaurent(2, {(1, 1): VLaurent.q_power(1), (-1, 0): VLaurent.one()})
    val = a.evaluate((Fraction(2), Fraction(3)), Fraction(2))
    assert val == Fraction(4) * 6 + Fraction(1, 2)


def test_symlaurent_json_round_trip():
    a = SymLaurent(2, {(1, -2): VLaurent({-1: Fraction(3, 4)}), (0, 0): VLaurent.one()})
    assert SymLaurent.from_json(a.to_json(), 2) == a


def test_symmetry_predicates():
    e1 = SymLaurent(2, {(1, 0): VLaurent.one(), (0, 1): VLaurent.one()})
    assert is_symmetric(e1)
    assert not is_in_s0(e1)
    pal = SymLaurent(
        2,
        {
            (1, 0): VLaurent.one(),
            (0, 1): VLaurent.one(),
            (-1, 0): VLaurent.one(),
            (0, -1): VLaurent.one(),
        },
    )
    assert is_in_s0(pal)
    assert not is_symmetric(SymLaurent.monomial(2, (1, 0)))
    # single-variable case: pair inversion is vacuous
    assert is_in_s0(SymLaurent.monomial(1, (2,)))


def test_poly_div_exact_and_failure():
    x1 = SymLaurent.monomial(2, (1, 0))
    x2 = SymLaurent.monomial(2, (0, 1))
    num = x1 * x1 - x2 * x2
    assert poly_div_exact(num, x1 - x2) == x1 + x2
    assert poly_div_exact(num, x1 + x2) == x1 - x2
    with pytest.raises(ValueError):
        poly_div_exact(x1 * x1 + x2, x1 + x2)
    with pytest.raises(ZeroDivisionError):
        poly_div_exact(x1, SymLaurent.zero(2))


def test_poly_div_exact_with_laurent_tails():
    a = SymLaurent(2, {(1, 1): VLaurent.one(), (-1, -1): VLaurent.one(), (0, 0): VLaurent.from_scalar(2)})
    b = SymLaurent(2, {(1, 1): VLaurent.one(), (0, 0): VLaurent.one()})
    # a = (X1X2 + 1)(1 + X1^-1 X2^-1)
    c = SymLaurent(2, {(0, 0): VLaurent.one(), (-1, -1): VLaurent.one()})
    assert poly_div_exact(a, b) == c


def _fseries(coeffs, trunc=None, nmin=0):
    return TruncSeries(
        {k: Fraction(x) for k, x in coeffs.items()}, trunc, Fraction(0), nmin
    )


def test_trunc_series_access_rules():
    s = _fseries({0: 1, 2: 5}, trunc=4)
    assert s.get(0) == 1 and s.get(1) == 0 and s.get(2) == 5
    assert s.get(4) == 0
    with pytest.raises(ValueError):
        s.get(5)
    with pytest.raises(ValueError):
        TruncSeries({-1: Fraction(1)}, 4, Fraction(0))


def test_trunc_series_product_truncation_is_pessimistic():
    a = _fseries({0: 1, 1: 1}, trunc=3)
    b = _fseries({2: 1}, trunc=None, nmin=2)
    prod = a * b
    # b shifts everything up by 2, so knowledge extends to degree 5
    assert prod.trunc == 5
    assert prod.get(2) == 1 and prod.get(3) == 1 and prod.get(5) == 0
    exact = _fseries({1: 1}) * _fseries({1: -1})
    assert exact.trunc is None and exact.get(2) == -1


def test_trunc_series_invert_geometric():
    one = Fraction(1)
    s = _fseries({0: 1, 1: -1}, trunc=None)  # 1 - Y
    inv = s.invert(6, one)
    for k in range(7):
        assert inv.get(k) == 1
    assert (s * inv).coefficients_equal(_fseries({0: 1}, trunc=6), 6)
    with pytest.raises(ValueError):
        _fseries({0: 2}).invert(3, one)


def test_trunc_series_shift_scalar_and_zero():
    s = _fseries({1: 3}, trunc=4)
    shifted = s.shift(2)
    assert shifted.get(3) == 3 and shifted.trunc == 6 and shifted.nmin == 2
    scaled = s.scalar_mul(Fraction(1, 3))
    assert scaled.get(1) == 1
    assert not s.is_zero()
    assert _fseries({}, trunc=2).is_zero()
    assert s.support_max() == 1
    assert _fseries({}).support_max() is None


def test_trunc_series_add_sub():
    a = _fseries({0: 1, 3: 2}, trunc=5)
    b = _fseries({3: -2, 4: 7}, trunc=8)
    total = a + b
    assert total.trunc == 5
    assert total.get(3) == 0 and total.get(4) == 7
    assert (a - a).is_zero()


def test_shared_operators_on_both_laurent_types():
    v = VLaurent.v_power(1)
    x = SymLaurent.variable(2, 0)
    assert v**0 == VLaurent.one()
    assert x**0 == SymLaurent.one(2)
    assert (x**0).r == 2
    assert x**2 == SymLaurent.monomial(2, (2, 0))
    assert 1 - v == VLaurent({0: 1, 1: -1})
    assert 1 - x == SymLaurent(2, {(0, 0): 1, (1, 0): -1})
    assert x - x == 0 and not (x - x)
    for a in (v, x):
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(ValueError):
            a ** -1
