"""Exact-arithmetic layer: Laurent coefficients, symmetric Laurent
polynomials, truncated series."""

from __future__ import annotations

import json
import math
import operator
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


def _fseries(coeffs, trunc=None):
    return TruncSeries({k: Fraction(x) for k, x in coeffs.items()}, trunc, Fraction(0))


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
    b = _fseries({2: 1}, trunc=None)
    prod = a * b
    # a product is trusted up to the smaller operand horizon, even where a
    # factor without low-degree terms would let it see further
    assert prod.trunc == 3
    assert prod.get(2) == 1 and prod.get(3) == 1
    with pytest.raises(ValueError):
        prod.get(4)
    assert (a * _fseries({0: 1}, trunc=5)).trunc == 3
    exact = _fseries({1: 1}) * _fseries({1: -1})
    assert exact.trunc is None and exact.get(2) == -1


def test_trunc_series_invert_geometric():
    one = Fraction(1)
    s = _fseries({0: 1, 1: -1}, trunc=None)  # 1 - Y
    inv = s.invert(6, one)
    for k in range(7):
        assert inv.get(k) == 1
    assert (s * inv).first_mismatch(_fseries({0: 1}, trunc=6), 6) is None
    with pytest.raises(ValueError):
        _fseries({0: 2}).invert(3, one)


def test_trunc_series_is_zero():
    s = _fseries({1: 3}, trunc=4)
    assert not s.is_zero()
    assert _fseries({}, trunc=2).is_zero()
    assert _fseries({5: 1}, trunc=4).is_zero()  # dropped beyond the horizon


def test_trunc_series_add_sub():
    a = _fseries({0: 1, 3: 2}, trunc=5)
    b = _fseries({3: -2, 4: 7}, trunc=8)
    total = a + b
    assert total.trunc == 5
    assert total.get(3) == 0 and total.get(4) == 7
    assert (a - a).is_zero()


# Property checks of the series layer on random Fraction series, with
# derandomized hypothesis examples (skipped where hypothesis is missing).


def _hypothesis():
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies, hyp.settings(
        max_examples=50, derandomize=True, deadline=None, database=None
    )


def _series(st, const=None):
    """Fraction series of degree <= 8 with horizon None or 0..8; ``const``
    fixes the constant coefficient."""
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=7)
    degree = st.integers(min_value=0 if const is None else 1, max_value=8)
    coeffs = st.dictionaries(degree, coeff, max_size=5)
    if const is not None:
        coeffs = coeffs.map(lambda c: {**c, 0: const})
    horizon = st.none() | st.integers(min_value=0, max_value=8)
    return st.builds(_fseries, coeffs, horizon)


def test_series_times_its_inverse_is_one():
    hyp, st, settings = _hypothesis()
    unit = _fseries({0: 1})

    @settings
    @hyp.given(_series(st, const=Fraction(1)), st.integers(min_value=0, max_value=8))
    def check(s, t):
        t = min(t, 8 if s.trunc is None else s.trunc)
        assert (s * s.invert(t, Fraction(1))).first_mismatch(unit, t) is None

    check()


def test_product_is_trusted_to_the_smaller_horizon():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_series(st), _series(st))
    def check(a, b):
        prod = a * b
        horizons = [t for t in (a.trunc, b.trunc) if t is not None]
        assert prod.trunc == (min(horizons) if horizons else None)
        for k in range(17 if prod.trunc is None else prod.trunc + 1):
            assert prod.get(k) == sum(
                (a.coeffs.get(i, 0) * b.coeffs.get(k - i, 0) for i in range(k + 1)),
                Fraction(0),
            )

    check()


def test_first_mismatch_is_the_lowest_differing_degree():
    hyp, st, settings = _hypothesis()
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=7)
    coeffs = st.dictionaries(st.integers(min_value=0, max_value=8), coeff, max_size=6)

    @settings
    @hyp.given(coeffs, coeffs, st.integers(min_value=0, max_value=8))
    def check(base, changes, through):
        other = {**base, **changes}
        expected = next(
            (k for k in range(through + 1) if base.get(k, 0) != other.get(k, 0)), None
        )
        a, b = _fseries(base, trunc=8), _fseries(other, trunc=8)
        assert a.first_mismatch(b, through) == expected
        assert b.first_mismatch(a, through) == expected

    check()
    with pytest.raises(ValueError):
        _fseries({}, trunc=3).first_mismatch(_fseries({}), 4)


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


# Oracle and property checks of the flat store shared by SymLaurent and
# VLaurent on random sparse operands: r = 0..3 and VLaurents, negative
# exponents, mixed Fraction denominators, zero and constant operands.


def _plain(a) -> dict:
    """{X-exponents: {v-exponent: Fraction}} read off the ``c`` views; a
    VLaurent is the one X-monomial ()."""
    if isinstance(a, VLaurent):
        return {(): dict(a.c)} if a else {}
    return {e: dict(x.c) for e, x in a.c.items()}


def _nonzero(terms: dict) -> dict:
    kept = {e: {k: f for k, f in x.items() if f} for e, x in terms.items()}
    return {e: x for e, x in kept.items() if x}


def _nested_mul(a: dict, b: dict) -> dict:
    """The product of two _plain forms, one Fraction product per pair of
    terms: the oracle for the flat convolution, using no Laurent class."""
    c: dict = {}
    for e1, x1 in a.items():
        for e2, x2 in b.items():
            acc = c.setdefault(tuple(map(operator.add, e1, e2)), {})
            for k1, f1 in x1.items():
                for k2, f2 in x2.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + f1 * f2
    return _nonzero(c)


def _nested_add(a: dict, b: dict) -> dict:
    c = {e: dict(x) for e, x in a.items()}
    for e, x in b.items():
        acc = c.setdefault(e, {})
        for k, f in x.items():
            acc[k] = acc.get(k, 0) + f
    return _nonzero(c)


def _is_normal(a: SymLaurent | VLaurent) -> bool:
    nums = list(a.num.values())
    return (
        type(a.den) is int
        and a.den > 0
        and all(type(x) is int and x for x in nums)
        and all(len(k) == a.r + 1 for k in a.num)
        and math.gcd(a.den, *nums) == 1
    )


def _coeff(st):
    numerator = st.integers(min_value=-7, max_value=7)
    return st.builds(Fraction, numerator, st.sampled_from((1, 2, 3, 4, 6)))


def _vlaurents(st):
    exps = st.integers(min_value=-2, max_value=2)
    return st.dictionaries(exps, _coeff(st), max_size=3).map(VLaurent)


def _sym(st, r: int):
    """A sparse SymLaurent in r variables: up to four terms with exponents
    in -2..2, or a constant (zero included)."""
    mono = st.tuples(*[st.integers(min_value=-2, max_value=2)] * r)
    sparse = st.dictionaries(mono, _vlaurents(st), max_size=4)
    const = st.one_of(_coeff(st), _vlaurents(st)).map(lambda x: {(0,) * r: x})
    return st.one_of(sparse, const).map(lambda c: SymLaurent(r, c))


def _sym_triples(st):
    return st.one_of([st.tuples(*[_sym(st, r)] * 3) for r in range(4)])


def _triples(st):
    """Three operands of one class: SymLaurents in r = 0..3 or VLaurents."""
    return st.one_of(_sym_triples(st), st.tuples(*[_vlaurents(st)] * 3))


def test_flat_product_and_sum_match_the_nested_oracle():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_triples(st))
    def check(abc):
        a, b, _ = abc
        pa, pb = _plain(a), _plain(b)
        for got, want in ((a * b, _nested_mul(pa, pb)), (a + b, _nested_add(pa, pb))):
            assert type(got) is type(a)
            assert _plain(got) == want
            assert _is_normal(got)
        negated = {e: {k: -f for k, f in x.items()} for e, x in pa.items()}
        assert _plain(-a) == negated and _is_normal(-a)
        assert _plain(a - b) == _nested_add(pa, _plain(-b)) and _is_normal(a - b)

    check()


def test_mixed_vlaurent_and_symlaurent_operands():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_sym_triples(st), _vlaurents(st))
    def check(abc, x):
        a = abc[0]
        const = {(0,) * a.r: dict(x.c)} if x else {}
        want = _nested_mul(_plain(a), const)
        for got in (a * x, x * a):
            assert type(got) is SymLaurent and _plain(got) == want and _is_normal(got)
        for got in (a + x, x + a):
            assert type(got) is SymLaurent and _plain(got) == _nested_add(_plain(a), const)
        lifted = SymLaurent.constant(a.r, x)
        assert lifted == x and x == lifted
        assert (a == x) == (x == a) == (_plain(a) == const)

    check()


def _flat_terms(a: SymLaurent) -> list:
    """(X-exponents, [(v-exponent, coefficient), ...]) in lexicographic
    order, read off the flat numerators and the shared denominator."""
    grouped: dict = {}
    for k in sorted(a.num):
        grouped.setdefault(k[:-1], []).append((k[-1], Fraction(a.num[k], a.den)))
    return list(grouped.items())


def _ratio(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _flat_v_text(pairs) -> str:
    return " + ".join(
        str(f) if e == 0 else f"{f}*v" if e == 1 else f"{f}*v^{e}" for e, f in pairs
    )


def _flat_text(a: SymLaurent) -> str:
    parts = []
    for e, pairs in _flat_terms(a):
        mono = "*".join(
            f"X{i + 1}" if k == 1 else f"X{i + 1}^{k}" for i, k in enumerate(e) if k
        )
        cs = _flat_v_text(pairs)
        if "+" in cs or "-" in cs[1:]:
            cs = f"({cs})"
        parts.append(f"{cs}*{mono}" if mono else cs)
    return " + ".join(parts) or "0"


def test_serialization_matches_a_formatter_of_the_flat_form():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_sym_triples(st))
    def check(abc):
        a, b, _ = abc
        # a keeps the view its constructor was given; a * b builds its own
        for x in (a, a * b, a - b):
            terms = _flat_terms(x)
            assert x.to_json() == [
                {"exponents": list(e), "coeff": {str(ve): _ratio(f) for ve, f in pairs}}
                for e, pairs in terms
            ]
            assert str(x) == _flat_text(x)
            body = ", ".join(f"{e}: {_flat_v_text(pairs)}" for e, pairs in terms)
            assert repr(x) == f"SymLaurent({x.r}, {{{body}}})"

    check()
    # nested input out of order serializes in lexicographic order
    x = SymLaurent(2, {(1, 0): VLaurent({3: 1, -1: Fraction(-1, 2)}), (0, -1): 2})
    assert str(x) == "2*X2^-1 + (-1/2*v^-1 + 1*v^3)*X1"
    assert repr(x) == "SymLaurent(2, {(0, -1): 2, (1, 0): -1/2*v^-1 + 1*v^3})"


def test_shift_and_flat_constants_match_the_general_forms():
    hyp, st, settings = _hypothesis()
    shifts = st.integers(min_value=-3, max_value=3)

    @settings
    @hyp.given(_vlaurents(st), _coeff(st), shifts, st.integers(min_value=0, max_value=3))
    def check(x, f, k, r):
        assert x.shifted(k) == x * VLaurent.v_power(k)
        assert _plain(x.shifted(k)) == _nested_mul(_plain(x), {(): {k: Fraction(1)}})
        for c in (x, f, f.numerator):
            const = SymLaurent.constant(r, c)
            assert const == SymLaurent(r, {(0,) * r: c}) and _is_normal(const)
        assert SymLaurent.zero(r) == SymLaurent(r) and _is_normal(SymLaurent.zero(r))

    check()


def test_ring_axioms():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_triples(st))
    def check(abc):
        a, b, c = abc
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        assert a - a == 0 and not (a + (-a))
        assert a * 0 == 0

    check()


def test_exact_divisions_undo_products():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_sym_triples(st), _vlaurents(st), _vlaurents(st))
    def check(abc, x, y):
        a, b, _ = abc
        if b:
            assert poly_div_exact(a * b, b) == a
        if y:
            quotient = vlaurent_div_exact(x * y, y)
            assert type(quotient) is VLaurent and quotient == x

    check()


def test_json_round_trips():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_sym_triples(st), _vlaurents(st))
    def check(abc, x):
        a = abc[0]
        assert SymLaurent.from_json(json.loads(json.dumps(a.to_json())), a.r) == a
        back = VLaurent.from_json(json.loads(json.dumps(x.to_json())))
        assert back == x and _is_normal(back)

    check()


def test_evaluation_is_a_ring_homomorphism():
    hyp, st, settings = _hypothesis()
    nonzero = _coeff(st).filter(bool)

    @settings
    @hyp.given(_sym_triples(st), st.lists(nonzero, min_size=3, max_size=3), nonzero)
    def check(abc, point, v):
        a, b, _ = abc
        pt = point[: a.r]
        ea, eb = a.evaluate(pt, v), b.evaluate(pt, v)
        assert (a * b).evaluate(pt, v) == ea * eb
        assert (a + b).evaluate(pt, v) == ea + eb
        assert (-a).evaluate(pt, v) == -ea
        assert isinstance(ea, Fraction)

    check()


def test_equal_values_have_one_normal_form():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_sym_triples(st))
    def check(abc):
        a, b, _ = abc
        for same in ((a * Fraction(1, 3)) * 3, (a + b) - b, a * Fraction(2, 4) * 2):
            assert same == a and same.to_json() == a.to_json()
            assert (same.num, same.den) == (a.num, a.den)

    check()
    half = SymLaurent(2, {(1, -1): Fraction(2, 4), (0, 0): VLaurent({-1: Fraction(3, 6)})})
    same = SymLaurent(2, {(1, -1): Fraction(1, 2), (0, 0): VLaurent({-1: Fraction(1, 2)})})
    assert half == same and half.to_json() == same.to_json()
    assert (half.num, half.den) == ({(1, -1, 0): 1, (0, 0, -1): 1}, 2)
    # sums and restrictions that cancel factors of the denominator
    whole = SymLaurent(2, {(1, -1): 1, (0, 0): VLaurent({-1: 1})})
    assert (half + half).den == 1 and half + half == whole
    assert SymLaurent.zero(3).den == 1 and (half - same).den == 1
    assert half.restrict(lambda e: e == (1, -1)) == SymLaurent.monomial(2, (1, -1), Fraction(1, 2))


def test_vlaurent_values_have_the_flat_normal_form():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_vlaurents(st), _vlaurents(st), st.integers(min_value=-3, max_value=3))
    def check(x, y, k):
        results = [x + y, x * y, -x, x - y, x.shifted(k), (x * Fraction(1, 3)) * 3]
        if y:
            results.append(vlaurent_div_exact(x * y, y))
        for got in results:
            assert type(got) is VLaurent and _is_normal(got)
        same = (x + y) - y
        assert (same.num, same.den) == (x.num, x.den)

    check()
    half = VLaurent({-1: Fraction(2, 4), 1: Fraction(3, 2)})
    assert (half.num, half.den) == ({(-1,): 1, (1,): 3}, 2)
    assert ((half + half).num, (half + half).den) == ({(-1,): 1, (1,): 3}, 1)
    assert (half * 2).den == 1 and half * 2 == VLaurent({-1: 1, 1: 3})


def test_nested_view_is_read_only_and_built_once():
    x = VLaurent({0: Fraction(1, 2), 2: 3})
    a = SymLaurent(2, {(1, 0): x, (0, 0): 4})
    assert a.c is a.c
    assert dict(a.c) == {(1, 0): x, (0, 0): VLaurent.from_scalar(4)}
    with pytest.raises(TypeError):
        a.c[(0, 1)] = VLaurent.one()
    # VLaurent coefficients given to the constructor are the view, zeros dropped
    b = SymLaurent(2, {(1, 0): x, (0, 1): VLaurent.zero()})
    assert dict(b.c) == {(1, 0): x} and b.c[(1, 0)] is x
    assert dict((b * 1).c) == dict(b.c)
