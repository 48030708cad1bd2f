"""Exact-arithmetic layer: Laurent coefficients, symmetric Laurent
polynomials, truncated series."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from paramodular import rankin, rings, whittaker
from paramodular.characters import orbit_sum, schur
from paramodular.oldforms import depth_shift_factor, theta_factor, theta_prime_factor
from paramodular.rings import (
    SymLaurent,
    TruncSeries,
    VLaurent,
    poly_div_exact,
    vlaurent_div_exact,
)
from paramodular.rankin import psi_alternant
from paramodular.sampling import random_whittaker_data
from paramodular.whittaker import WhittakerData, _in_cone, theta_data

from laurent_oracles import (
    flat_view,
    is_homogeneous,
    is_in_s0,
    is_symmetric,
    laurent_product,
    min_var_exp,
    series_inverse,
    series_product,
    unpacked,
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
    assert VLaurent.from_json({"0": 3, "1": "-1/2"}) == VLaurent({0: 3, 1: Fraction(-1, 2)})
    # a float or a boolean is not exact input, whatever value it holds
    for bad in (0.1, 0.5, True, None, [1]):
        with pytest.raises(TypeError):
            VLaurent.from_json({"0": bad})
    assert VLaurent.from_json({"-12": 1, "0": 2, "30": 3}) == VLaurent({-12: 1, 0: 2, 30: 3})
    # int() would read each of these keys, some as another exponent
    for key in ("1_0", " 2 ", "01", "-0", "+1", "", "1.0", "\u0661", "2\n", 2):
        with pytest.raises(ValueError, match="exponent key"):
            VLaurent.from_json({key: "1"})


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
            (1, 0): VLaurent({0: 2}),
            (0, 1): VLaurent({0: 2}),
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


def test_symlaurent_invert_vars():
    a = SymLaurent.monomial(3, (2, 1, 0))
    assert a.invert_all_vars() == SymLaurent.monomial(3, (-2, -1, 0))
    # v is a coefficient variable: its exponent must not flip
    b = SymLaurent(2, {(1, -3): VLaurent({5: Fraction(2, 3)}), (0, 0): VLaurent.v_power(-1)})
    assert b.invert_all_vars() == SymLaurent(
        2, {(-1, 3): VLaurent({5: Fraction(2, 3)}), (0, 0): VLaurent.v_power(-1)}
    )


def test_symlaurent_substitute_last_zero():
    a = SymLaurent(2, {(1, 0): VLaurent.one(), (1, 2): VLaurent.one()})
    assert a.substitute_last_zero() == SymLaurent.monomial(1, (1,))
    bad = SymLaurent.monomial(2, (0, -1))
    with pytest.raises(ValueError):
        bad.substitute_last_zero()


def test_symlaurent_homogeneity_and_degrees():
    a = SymLaurent(2, {(2, 1): VLaurent.one(), (0, 3): VLaurent.one()})
    assert is_homogeneous(a, 3)
    assert not is_homogeneous(a + SymLaurent.one(2))
    assert min_var_exp(a) == 0
    assert min_var_exp(SymLaurent.monomial(2, (-1, 4))) == -1


def test_public_surface_is_what_the_verifier_uses():
    # Helpers that only tests call live in tests/laurent_oracles.py; a new
    # public name here has to be added to this list on purpose.
    defined = {
        name
        for name, obj in vars(rings).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == rings.__name__
    }
    assert defined == {"SymLaurent", "TruncSeries", "VLaurent", "poly_div_exact", "vlaurent_div_exact"}
    shared = {"c", "den", "evaluate", "num", "one", "r", "to_json", "zero"}
    surfaces = {
        VLaurent: shared | {"from_json", "q_power", "v_power"},
        SymLaurent: shared
        | {"constant", "invert_all_vars", "monomial", "restrict"}
        | {"substitute_last_zero"},
        TruncSeries: {"coeffs", "first_mismatch", "get", "invert", "trunc", "zero"},
    }
    for cls, names in surfaces.items():
        assert {name for name in dir(cls) if not name.startswith("_")} == names, cls.__name__


def test_symlaurent_evaluate_matches_hand_expansion():
    a = SymLaurent(2, {(1, 1): VLaurent.q_power(1), (-1, 0): VLaurent.one()})
    val = a.evaluate((Fraction(2), Fraction(3)), Fraction(2))
    assert val == Fraction(4) * 6 + Fraction(1, 2)


def _from_terms(terms: list[dict], r: int) -> SymLaurent:
    """A SymLaurent rebuilt from its to_json terms: no command reads
    SymLaurent JSON, so this only shows that to_json loses nothing."""
    return SymLaurent(r, {tuple(t["exponents"]): VLaurent.from_json(t["coeff"]) for t in terms})


def test_symlaurent_json_round_trip():
    a = SymLaurent(2, {(1, -2): VLaurent({-1: Fraction(3, 4)}), (0, 0): VLaurent.one()})
    assert _from_terms(a.to_json(), 2) == a


@pytest.mark.parametrize(
    "build",
    [
        lambda: VLaurent({1.5: 1}),
        lambda: SymLaurent.monomial(2, (0.5, 1)),
        lambda: TruncSeries({1.5: Fraction(1)}, None, Fraction(0)),
        lambda: WhittakerData(2, {(1.7, 0): VLaurent.one()}),
    ],
    ids=["vlaurent", "symlaurent", "series", "whittaker"],
)
def test_fractional_exponents_are_rejected_not_truncated(build):
    # int() used to read these as v, X2, Y^1 and support (1, 0)
    with pytest.raises(TypeError):
        build()


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
    a = SymLaurent(2, {(1, 1): VLaurent.one(), (-1, -1): VLaurent.one(), (0, 0): VLaurent({0: 2})})
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
    s = _fseries({0: 1, 1: -1}, trunc=None)  # 1 - Y
    inv = s.invert(6)
    for k in range(7):
        assert inv.get(k) == 1
    assert (s * inv).first_mismatch(_fseries({0: 1}, trunc=6), 6) is None
    with pytest.raises(ValueError, match="^series inversion needs constant coefficient 1$"):
        _fseries({0: 2}).invert(3)
    with pytest.raises(ValueError, match="^operand not known through the requested order$"):
        _fseries({0: 1, 1: 1}, trunc=2).invert(3)


def test_symbolic_series_inverse_has_the_ring_one_as_constant():
    # the inverse takes its constant coefficient from the operand's
    one = SymLaurent.one(2)
    x1 = SymLaurent.monomial(2, (1, 0))
    s = TruncSeries({0: one, 1: -x1}, None, SymLaurent.zero(2))  # 1 - X1 Y
    inv = s.invert(3)
    assert isinstance(inv.get(0), SymLaurent) and inv.get(0) == one
    assert [inv.get(k) for k in range(4)] == [one, x1, x1 * x1, x1 * x1 * x1]


def test_trunc_series_is_zero():
    s = _fseries({1: 3}, trunc=4)
    assert s.coeffs
    assert not _fseries({}, trunc=2).coeffs
    assert not _fseries({5: 1}, trunc=4).coeffs  # dropped beyond the horizon


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
        assert (s * s.invert(t)).first_mismatch(unit, t) is None

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
    x = SymLaurent.monomial(2, (1, 0))
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
        and all(len(k) == a.r + 1 for k in unpacked(a))
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
    terms = unpacked(a)
    for k in sorted(terms):
        grouped.setdefault(k[:-1], []).append((k[-1], Fraction(terms[k], a.den)))
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
        assert _plain(x * VLaurent.v_power(k)) == _nested_mul(_plain(x), {(): {k: Fraction(1)}})
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


def _series_pairs(st):
    """Two series over one coefficient ring, symbolic (SymLaurent in r = 1
    or 2), VLaurent (the zeta series' ring) or Fraction, each with horizon
    None or 0..6; the first has constant coefficient 1, so it inverts."""

    def series(zero, coeff, one=None):
        low = 0 if one is None else 1
        coeffs = st.dictionaries(st.integers(min_value=low, max_value=6), coeff, max_size=4)
        if one is not None:
            coeffs = coeffs.map(lambda c: {**c, 0: one})
        horizon = st.none() | st.integers(min_value=0, max_value=6)
        return st.builds(TruncSeries, coeffs, horizon, st.just(zero))

    kinds = [(SymLaurent.zero(r), _sym(st, r), SymLaurent.one(r)) for r in (1, 2)]
    kinds += [(VLaurent.zero(), _vlaurents(st), VLaurent.one()), (Fraction(0), _coeff(st), Fraction(1))]
    return st.one_of(
        [st.tuples(series(zero, c, one), series(zero, c)) for zero, c, one in kinds]
    )


def _same_series(got: TruncSeries, want: TruncSeries) -> bool:
    return (
        got.trunc == want.trunc
        and got.coeffs == want.coeffs
        and all(type(got.coeffs[k]) is type(x) for k, x in want.coeffs.items())
    )


def test_series_product_and_inverse_match_the_pairwise_oracles():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_series_pairs(st), st.integers(min_value=0, max_value=6))
    def check(ab, t):
        a, b = ab
        for x, y in ((a, b), (b, a), (a, a)):
            assert _same_series(x * y, series_product(x, y))
        t = min(t, 6 if a.trunc is None else a.trunc)
        assert _same_series(a.invert(t), series_inverse(a, t))

    check()
    # int, Fraction and VLaurent coefficients join a SymLaurent series'
    # ring as constants, each degree summed from its zero; a mismatched r
    # raises
    zero = SymLaurent.zero(2)
    a = TruncSeries({0: 1, 1: VLaurent.v_power(2), 2: Fraction(-2, 5)}, None, zero)
    b = TruncSeries({0: SymLaurent.monomial(2, (1, -1), Fraction(1, 3)), 1: 3, 2: VLaurent({-1: 2})}, 3, zero)
    for x, y in ((a, b), (b, a), (a, a)):
        got = x * y
        assert got.coeffs == series_product(x, y).coeffs
        assert all(type(c) is SymLaurent and _is_normal(c) for c in got.coeffs.values())
    assert all(type(c) is SymLaurent for k, c in a.invert(4).coeffs.items() if k)
    with pytest.raises(ValueError, match="variable counts differ"):
        TruncSeries({0: SymLaurent.one(1)}, None, zero) * a


def _random_laurent(rng: random.Random, r: int):
    """A SymLaurent in r variables (a VLaurent at r = 0) of one to five
    terms, X- and v-exponents in -4..4, over denominators 1..6."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(-4, 4) for _ in range(r))
        terms.setdefault(exps, {})[rng.randint(-4, 4)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if r == 0:
        return sum((VLaurent(v) for v in terms.values()), VLaurent.zero())
    return SymLaurent(r, {e: VLaurent(v) for e, v in terms.items()})


def _packed_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b through the packed series product that the verdicts use."""
    t = a._horizon(b)
    return rings._Packed.of(a.coeffs, a.zero).times(rings._Packed.of(b.coeffs, b.zero), t).series(t)


def test_packed_series_product_matches_the_per_degree_oracle():
    # every operand shape the packed product meets: negative exponents,
    # unlike denominators, int and Fraction coefficients coerced into the
    # ring, horizons None, equal, unequal and 0, an empty operand, a degree
    # that cancels and a Y-degree past any packed field's limit
    rng = random.Random("packed-series-product")
    horizons = (None, 0, 1, 3, 6)
    for r in range(5):
        zero = SymLaurent.zero(r) if r else VLaurent.zero()
        for _ in range(30):
            series = []
            for _ in range(2):
                coeffs = {k: _random_laurent(rng, r) for k in rng.sample(range(8), rng.randint(0, 5))}
                if coeffs and rng.random() < 0.3:
                    coeffs[min(coeffs)] = rng.choice([3, Fraction(-2, 7)])
                series.append(TruncSeries(coeffs, rng.choice(horizons), zero))
            c = _random_laurent(rng, r)
            cancelling = TruncSeries({0: 1, 1: c}, None, zero), TruncSeries({0: 1, 1: -c}, 4, zero)
            far = TruncSeries({40000: c, 1: Fraction(1, 3)}, None, zero)
            pairs = [tuple(series), cancelling, (far, series[0]), (series[1], far)]
            pairs += [(x, TruncSeries({}, t, zero)) for x in series for t in (None, 2)]
            for a, b in pairs:
                got, want = _packed_product(a, b), series_product(a, b)
                assert (got.trunc, got.coeffs) == (want.trunc, want.coeffs), (r, a, b)
                for x in got.coeffs.values():
                    assert type(x) is type(zero) and x and _is_normal(x)
                    unpacked(x)  # the keys, and the bound covers them
            assert 1 not in _packed_product(*cancelling).coeffs
            assert max(_packed_product(far, far).coeffs) == 80000


def test_no_pair_past_the_horizon_meets_the_field_limit():
    # X_1^20000 at Y^5 in both operands: the pair of the two, at Y^10, would
    # pass the field limit, every pair within the horizon 6 does not
    top = SymLaurent.monomial(2, (20000, 0), VLaurent({-3: 2}))
    low = SymLaurent(2, {(1, -1): VLaurent({2: Fraction(1, 3)}), (0, 0): 5})
    zero = SymLaurent.zero(2)
    a = TruncSeries({0: low, 1: 1, 5: top}, 6, zero)
    b = TruncSeries({0: 1, 1: low, 5: top * Fraction(-4, 5)}, None, zero)
    for x, y in ((a, b), (b, a), (a, a)):
        got = _packed_product(x, y)
        assert (got.trunc, got.coeffs) == (6, series_product(x, y).coeffs)
        assert max(got.coeffs) == 6 and all(c._bound <= LIMIT for c in got.coeffs.values())
    # at horizon 10 the pair is formed, and refused
    with pytest.raises(OverflowError):
        _packed_product(TruncSeries(a.coeffs, 10, zero), b)
    # X_1^-20000 at Y^3 in both, horizon 5: a pair formed at Y^6 would
    # borrow from the Y-field and land at Y^5
    deep = SymLaurent.monomial(2, (-20000, 1), VLaurent({1: 3}))
    c = TruncSeries({0: 1, 2: low, 3: deep}, 5, zero)
    got = _packed_product(c, c)
    assert (got.trunc, got.coeffs) == (5, series_product(c, c).coeffs)


def test_json_round_trips():
    hyp, st, settings = _hypothesis()

    @settings
    @hyp.given(_sym_triples(st), _vlaurents(st))
    def check(abc, x):
        a = abc[0]
        assert _from_terms(json.loads(json.dumps(a.to_json())), a.r) == a
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
    assert (unpacked(half), half.den) == ({(1, -1, 0): 1, (0, 0, -1): 1}, 2)
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
        results = [x + y, x * y, -x, x - y, x * VLaurent.v_power(k), (x * Fraction(1, 3)) * 3]
        if y:
            results.append(vlaurent_div_exact(x * y, y))
        for got in results:
            assert type(got) is VLaurent and _is_normal(got)
        same = (x + y) - y
        assert (same.num, same.den) == (x.num, x.den)

    check()
    half = VLaurent({-1: Fraction(2, 4), 1: Fraction(3, 2)})
    assert (unpacked(half), half.den) == ({(-1,): 1, (1,): 3}, 2)
    assert (unpacked(half + half), (half + half).den) == ({(-1,): 1, (1,): 3}, 1)
    assert (half * 2).den == 1 and half * 2 == VLaurent({-1: 1, 1: 3})


def test_nested_view_is_read_only_and_built_once():
    x = VLaurent({0: Fraction(1, 2), 2: 3})
    a = SymLaurent(2, {(1, 0): x, (0, 0): 4})
    assert dict(a.c) == {(1, 0): x, (0, 0): VLaurent({0: 4})}
    with pytest.raises(TypeError):
        a.c[(0, 1)] = VLaurent.one()
    # zero coefficients given to the constructor are dropped
    b = SymLaurent(2, {(1, 0): x, (0, 1): VLaurent.zero()})
    assert dict(b.c) == {(1, 0): x}
    assert dict((b * 1).c) == dict(b.c)


# The packed store: each exponent tuple is one int of W-bit fields offset to
# be non-negative, and every value bounds its |exponent| by the field limit.

LIMIT = rings._LIMIT


def test_packed_keys_round_trip_and_keep_the_lexicographic_order():
    hyp, st, settings = _hypothesis()
    exponent = st.integers(min_value=-LIMIT, max_value=LIMIT) | st.sampled_from(
        (-LIMIT, -LIMIT + 1, -1, 0, 1, LIMIT - 1, LIMIT)
    )

    def tuples(r):
        terms = st.lists(st.tuples(*[exponent] * (r + 1)), min_size=1, max_size=8, unique=True)
        return st.tuples(st.just(r), terms)

    @settings
    @hyp.given(st.integers(min_value=0, max_value=5).flatmap(tuples))
    def check(case):
        r, exps = case
        keys = [rings._pack(e) for e in exps]
        assert all(type(k) is int and k >= 0 for k in keys)
        assert [rings._unpack(k, r + 1) for k in keys] == exps
        assert [rings._unpack(k, r + 1) for k in sorted(keys)] == sorted(exps)
        # the constructor stores exactly these keys, and the views and
        # serialization read them back in lexicographic order
        nested: dict = {}
        for e in exps:
            nested.setdefault(e[:-1], {})[e[-1]] = 1
        a = SymLaurent(r, {x: VLaurent(vs) for x, vs in nested.items()})
        assert sorted(a.num) == sorted(keys) and unpacked(a) == {e: 1 for e in exps}
        assert list(flat_view(a * 1)) == sorted(exps)
        assert [(*t["exponents"], int(k)) for t in a.to_json() for k in t["coeff"]] == sorted(exps)

    check()


def test_exponents_at_the_field_limit_and_one_past_it():
    top = VLaurent.v_power(LIMIT)
    assert dict(top.c) == {LIMIT: 1} and top * 3 == VLaurent({LIMIT: 3})
    assert VLaurent.v_power(LIMIT - 1) * VLaurent.v_power(1) == top
    assert VLaurent.v_power(1) ** LIMIT == top
    assert VLaurent.from_json(top.to_json()) == top
    low = VLaurent({-LIMIT: Fraction(1, 2)})
    assert low * (VLaurent.one() + 2) == VLaurent({-LIMIT: Fraction(3, 2)})
    corner = SymLaurent(2, {(LIMIT, -LIMIT): low, (-LIMIT, LIMIT): 3, (0, 0): top})
    assert unpacked(corner) == {(LIMIT, -LIMIT, -LIMIT): 1, (-LIMIT, LIMIT, 0): 6, (0, 0, LIMIT): 2}
    assert corner.den == 2 and _from_terms(corner.to_json(), 2) == corner
    assert corner.invert_all_vars().invert_all_vars() == corner
    assert corner * Fraction(2, 3) + corner * Fraction(1, 3) == corner
    assert corner.evaluate((1, 1), 1) == Fraction(1, 2) + 3 + 1
    # two operands whose bounds sum to exactly the limit
    half = SymLaurent(2, {(LIMIT // 2, -(LIMIT // 2)): VLaurent({LIMIT // 2: 1}), (1, -1): 1})
    rest = SymLaurent(2, {(-(LIMIT - LIMIT // 2), 1): VLaurent({LIMIT - LIMIT // 2: 2}), (0, 0): 1})
    assert flat_view(half * rest) == laurent_product(half, rest)
    assert unpacked(half * rest)[(-1, 1 - LIMIT // 2, LIMIT)] == 2

    past = LIMIT + 1
    overflowing = {
        "VLaurent constructor": lambda: VLaurent({past: 1}),
        "negative VLaurent exponent": lambda: VLaurent.v_power(-past),
        "SymLaurent constructor": lambda: SymLaurent(2, {(0, past): 1}),
        "negative X-exponent": lambda: SymLaurent(2, {(-past, 0): VLaurent.one()}),
        "VLaurent.from_json": lambda: VLaurent.from_json({str(past): "1"}),
        "SymLaurent from JSON": lambda: _from_terms(
            [{"exponents": [past, 0], "coeff": {"0": "1"}}], 2
        ),
        "term product": lambda: top * VLaurent.v_power(1),
        "polynomial product": lambda: (top + 1) * (VLaurent.v_power(-1) + 1),
        "SymLaurent product": lambda: corner * SymLaurent.monomial(2, (1, 0)),
        "power": lambda: VLaurent.v_power(1) ** past,
        "square": lambda: (top + 1) ** 2,
        "term product below": lambda: low * VLaurent.v_power(-1),
    }
    for name, build in overflowing.items():
        with pytest.raises(OverflowError):
            build()
            pytest.fail(f"{name} returned a value")


def test_a_bound_that_ran_ahead_is_reread_from_the_keys():
    # X^a * X^-a is 1 while the tracked bound of the product is 2|a|, so a
    # chain of such products passes the limit long before its exponents do
    up, down = SymLaurent.monomial(2, (1000, -1000)), SymLaurent.monomial(2, (-1000, 1000))
    start = SymLaurent(2, {(1, 0): 1, (0, 1): VLaurent.v_power(2)})
    x = start
    for _ in range(20):  # a tracked bound of 40001 without re-reading
        x = x * up * down
    assert x == start and x._bound <= LIMIT

    # a value whose tracked bound sits at the limit, exponents at most 2:
    # the term product, the sum of products, a shift and a series product
    # each re-read it and succeed, and the re-read bound stays
    def inflated(value):
        value._bound = LIMIT
        return value

    two = SymLaurent(2, {(0, 1): 1, (1, 0): 3})
    assert inflated(start * 1) * SymLaurent.monomial(2, (0, 1)) == start * SymLaurent.monomial(2, (0, 1))
    assert inflated(start * 1) * two == start * two
    y = inflated(start * 1)
    assert y * two == start * two and y._bound == 2
    v = VLaurent({1: 1, -2: 3})
    assert inflated(v * 1) * VLaurent.v_power(5) == v * VLaurent.v_power(5)
    series = TruncSeries({0: inflated(start * 1), 1: inflated(two * 1)}, None, SymLaurent.zero(2))
    plain = TruncSeries({0: start, 1: two}, None, SymLaurent.zero(2))
    assert (series * series).coeffs == (plain * plain).coeffs

    # a true overflow still raises, also from an inflated bound
    top = SymLaurent.monomial(2, (0, 0), VLaurent.v_power(LIMIT))
    overflowing = {
        "term product": lambda: inflated(start * 1) * top,
        "sum of products": lambda: inflated(start * 1) * (top + two),
        "shift": lambda: inflated(VLaurent.v_power(-3) * 1) * VLaurent.v_power(-LIMIT),
        "chain": lambda: functools.reduce(operator.mul, [VLaurent.v_power(1000)] * 33),
    }
    for name, build in overflowing.items():
        with pytest.raises(OverflowError):
            build()
            pytest.fail(f"{name} returned a value")


def test_products_whose_fields_borrow_match_the_oracle():
    hyp, st, settings = _hypothesis()
    # operands bounded by half the limit, so that every product fits
    half = LIMIT // 2
    magnitude = st.integers(min_value=1, max_value=half)

    def operands(r):
        signed = st.tuples(*[magnitude.flatmap(lambda m: st.sampled_from((m, -m)))] * (r + 1))
        terms = st.dictionaries(signed, st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4)
        pos, neg = st.tuples(*[magnitude] * (r + 1)), st.tuples(*[magnitude.map(operator.neg)] * (r + 1))
        # each operand has a term of each sign in every coordinate, so
        # every coordinate of the product mixes signs and its fields borrow
        both = st.tuples(terms, pos, neg).map(lambda t: {**t[0], t[1]: 1, t[2]: -2})
        return st.tuples(st.just(r), both, both)

    def build(r, terms):
        nested: dict = {}
        for e, f in terms.items():
            nested.setdefault(e[:-1], {})[e[-1]] = f
        return SymLaurent(r, {x: VLaurent(vs) for x, vs in nested.items()})

    @settings
    @hyp.given(st.integers(min_value=1, max_value=4).flatmap(operands))
    def check(case):
        r, ta, tb = case
        a, b = build(r, ta), build(r, tb)
        got = a * b
        assert flat_view(got) == laurent_product(a, b)
        assert unpacked(got) and _is_normal(got)
        assert flat_view(a * b.invert_all_vars()) == laurent_product(a, b.invert_all_vars())

    check()


# -- products in Schur coordinates --------------------------------------


def _vandermonde(r: int) -> SymLaurent:
    """a_delta = prod_(i<j) (X_i - X_j), formed in monomials."""
    out = SymLaurent.one(r)
    for i in range(r):
        for j in range(i + 1, r):
            ei = [int(k == i) for k in range(r)]
            ej = [int(k == j) for k in range(r)]
            out = out * (SymLaurent.monomial(r, ei) - SymLaurent.monomial(r, ej))
    return out


def _from_coordinates(g: SymLaurent) -> SymLaurent:
    """sum c_nu s_nu in monomials for the Schur coordinates g (keys nu +
    delta), through the Schur polynomials of ``characters``."""
    r = g.r
    out = SymLaurent.zero(r)
    for key, c in g.c.items():
        out = out + schur(tuple(k - (r - 1 - i) for i, k in enumerate(key)), r) * c
    return out


def _coordinates(a: SymLaurent, top: int) -> SymLaurent:
    """The terms of the alternant a at strictly decreasing exponents with
    |nu| <= top: the Schur coordinates of a / a_delta through top."""
    r = a.r
    most = r * (r - 1) // 2 + top
    return _restricted(a, lambda e: all(map(operator.gt, e, e[1:])) and sum(e) <= most)


def _random_coordinates(rng, r: int) -> SymLaurent:
    """Schur coordinates of a random symmetric value: a few strictly
    decreasing keys, some with negative entries, with random v-terms."""
    keys = set()
    for _ in range(rng.randint(1, 5)):
        keys.add(tuple(sorted(rng.sample(range(-2, r + 5), r), reverse=True)))
    return SymLaurent(r, {k: _random_v_value(rng) for k in keys})


def _random_v_value(rng) -> VLaurent:
    exps = rng.sample(range(-3, 4), 2)
    return VLaurent({e: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for e in exps})


def _symmetrized(rng, r: int) -> SymLaurent:
    """The sum over S_r of the permuted images of a random value."""
    base = {tuple(rng.randint(-1, 2) for _ in range(r)): _random_v_value(rng) for _ in range(3)}
    out = SymLaurent.zero(r)
    for perm in itertools.permutations(range(r)):
        out = out + SymLaurent(r, {tuple(e[p] for p in perm): c for e, c in base.items()})
    return out


def _elementary(r: int, k: int) -> SymLaurent:
    """e_k in r variables, in monomials."""
    return SymLaurent(r, dict.fromkeys(set(itertools.permutations((1,) * k + (0,) * (r - k))), 1))


def _random_pieri_factor(rng, r: int) -> SymLaurent:
    """A random sum of c_k e_k, k = 0..r, with VLaurent c_k: a symmetric
    factor with every X-exponent 0 or 1."""
    out = SymLaurent.zero(r)
    for k in rng.sample(range(r + 1), rng.randint(1, r + 1)):
        out = out + _elementary(r, k) * _random_v_value(rng)
    return out


def _pieri_factors():
    """The factors the Schur-coordinate product accepts: the move factors,
    constants, their X_r = 0 specializations, and random sums of c_k e_k."""
    rng = random.Random("alternant factors")
    factors = [theta_factor(), theta_prime_factor()]
    factors += [depth_shift_factor(n) for n in range(1, 5)]
    factors += [SymLaurent.constant(r, VLaurent({-1: 2, 3: Fraction(1, 3)})) for r in (1, 3)]
    factors += [f.substitute_last_zero() for f in factors if f.r >= 2]
    factors += [_random_pieri_factor(rng, r) for r in (1, 2, 2, 3, 3, 4)]
    return factors


def test_alternant_product_matches_the_monomial_product():
    rng = random.Random("alternant product")
    for factor in _pieri_factors():
        r = factor.r
        assert is_symmetric(factor)
        assert all(a in (0, 1) for e in factor.c for a in e)
        vandermonde = _vandermonde(r)
        for _ in range(4):
            g = _random_coordinates(rng, r)
            # a_delta F g, formed in monomials, read at its Schur coordinates
            full = vandermonde * factor * _from_coordinates(g)
            for top in (-1, 0, 1, 2, 4, 7, 30):
                got = rankin._times_coordinates(g, factor, top)
                assert got == _coordinates(full, top), (factor, g, top)
                assert _is_normal(got)
        assert rankin._times_coordinates(SymLaurent.zero(r), factor, 5) == SymLaurent.zero(r)


def test_alternant_product_refuses_a_factor_that_is_not_symmetric():
    q = VLaurent.q_power(1)
    not_symmetric = {
        # theta's data symbol: X_1 + q X_2
        2: [SymLaurent(2, {(1, 0): 1, (0, 1): q}), SymLaurent.monomial(2, (1, 0))],
        # symmetric in X_1, X_2 but not in X_2, X_3, and the other way round
        3: [
            SymLaurent(3, {(1, 0, 0): 1, (0, 1, 0): 1}),
            SymLaurent(3, {(0, 1, 0): 1, (0, 0, 1): 1}),
        ],
    }
    # symmetric, but with an X-exponent outside {0, 1}, where a product key
    # may need a sort: type D orbit sums (their sign changes give exponent
    # -1), power sums, and symmetrized random values
    rng = random.Random("alternant factors")
    outside = [orbit_sum(lam, len(lam)) for lam in ((1, 0), (1, 1), (2, 1, 0), (1, 1, 1, 0), (2,))]
    outside += [SymLaurent(2, {(2, 0): 1, (0, 2): 1}), SymLaurent(2, {(2, 1): q, (1, 2): q})]
    outside += [_symmetrized(rng, r) for r in (1, 2, 3, 3, 4)]
    for factor in outside:
        assert is_symmetric(factor)
        assert any(a not in (0, 1) for e in factor.c for a in e), factor
        not_symmetric.setdefault(factor.r, []).append(factor)
    for r, factors in not_symmetric.items():
        g = SymLaurent(r, {tuple(range(r - 1, -1, -1)): 1})
        for factor in factors:
            with pytest.raises(ValueError):
                rankin._times_coordinates(g, factor, 5)
                pytest.fail("a factor that is not symmetric with 0/1 exponents was accepted")
    for factor in (SymLaurent.one(2), SymLaurent.one(4), SymLaurent.zero(4)):
        with pytest.raises(ValueError):
            rankin._times_coordinates(SymLaurent(3, {(2, 1, 0): 1}), factor, 5)


def test_alternant_product_refuses_a_v_exponent_past_the_field_limit():
    g = SymLaurent(2, {(1, 0): VLaurent.v_power(LIMIT - 2)})
    q = VLaurent.q_power(1)
    fits = SymLaurent(2, {(1, 0): q, (0, 1): q})
    assert rankin._times_coordinates(g, fits, 5) == SymLaurent(2, {(2, 0): VLaurent.v_power(LIMIT)})
    with pytest.raises(OverflowError):
        rankin._times_coordinates(g, fits * VLaurent.v_power(1), 5)
        pytest.fail("a value past the field limit was returned")


# The per-prefix cache (rings._prefix_image) through the kept Laurent
# product _product (and so restrict and the moves) and psi_alternant: each checked against its rule
# applied to the nested view, term by term.  psi_alternant reads only the generating function of its
# data, so arbitrary values (negative exponents, nonzero tails) are wrapped
# as data unchecked, to reach every field of the key arithmetic.


def _restricted(a: SymLaurent, keep) -> SymLaurent:
    return SymLaurent(a.r, {e: c for e, c in a.c.items() if keep(e)})


def _relabelled(a: SymLaurent, r: int, rule) -> SymLaurent:
    out = {}
    for e, c in a.c.items():
        image = rule(e)
        if image is not None:
            b, w = image
            out[b] = c * VLaurent.v_power(w)
    return SymLaurent(r, out)


def _psi_key(lam, n: int, r: int, trunc: int):
    """psi_alternant's rule written out: a weight of trace <= trunc with a
    zero tail goes to head + delta, shifted by the GL_r modulus exponent
    plus the twist trace * (2n - r - 1)."""
    if sum(lam) > trunc or any(lam[r:]):
        return None
    head = lam[:r]
    w = sum(a * (r - 1 - 2 * i) for i, a in enumerate(head)) + sum(lam) * (2 * n - r - 1)
    return tuple(a + r - 1 - i for i, a in enumerate(head)), w


def _increasing(e) -> bool:
    return all(map(operator.lt, e, e[1:]))


def _tailed(st, r: int):
    """SymLaurents in r variables with X-exponents in -2..3, half of the
    exponent tuples with a zero tail."""
    entry = st.integers(min_value=-2, max_value=3)
    heads = st.integers(min_value=1, max_value=r).flatmap(
        lambda h: st.tuples(*[entry] * h).map(lambda t: t + (0,) * (r - h))
    )
    exps = st.one_of(st.tuples(*[entry] * r), heads)
    return st.dictionaries(exps, _vlaurents(st), max_size=6).map(lambda c: SymLaurent(r, c))


def test_cached_restrict_and_relabel_match_their_rules():
    hyp, st, settings = _hypothesis()
    values = st.integers(min_value=1, max_value=4).flatmap(lambda r: _tailed(st, r))

    @settings
    @hyp.given(values, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
    def check(a, r, trunc):
        n, r = a.r, min(r, a.r)
        # twice each: the second answer comes from the cache
        for _ in range(2):
            for keep in (_in_cone, _increasing):
                assert a.restrict(keep) == _restricted(a, keep)
            got = psi_alternant(WhittakerData._of(a), n, r, trunc)
            assert got == _relabelled(a, r, lambda lam: _psi_key(lam, n, r, trunc))

    check()


def _anything(e) -> bool:
    return True


def _constant_tuple(e) -> bool:
    return len(set(e)) <= 1


def test_the_kept_product_keeps_the_terms_its_rule_admits():
    hyp, st, settings = _hypothesis()
    pairs = st.integers(min_value=1, max_value=3).flatmap(lambda r: st.tuples(_tailed(st, r), _tailed(st, r)))

    @settings
    @hyp.given(pairs)
    def check(pair):
        a, b = pair
        for keep in (_anything, _in_cone, _increasing, rankin._coordinate_rule(a.r, 2)):
            got = a._product(b, keep)
            assert got == _restricted(a * b, keep) and _is_normal(got)

    check()
    x1, x2 = SymLaurent.monomial(2, (1, 0)), SymLaurent.monomial(2, (0, 1))
    # terms that cancel: the cross terms of (X_1 + X_2)(X_1 - X_2)
    got = (x1 + x2)._product(x1 - x2, _anything)
    assert got == x1 * x1 - x2 * x2 and len(got.num) == 2
    # a kept part over a smaller denominator than the product's
    half = (x1 + x2) * Fraction(1, 2)
    got = half._product(x1 + x2, _increasing)
    assert got == x2 * x2 * Fraction(1, 2) and _is_normal(got)
    got = half._product(x1 + x2, _constant_tuple)
    assert got == x1 * x2 and got.den == 1 and _is_normal(got)
    # a term times a polynomial, either way round: the one-term path
    for a, b in ((x1 + x2, x2), (x2, x1 + x2)):
        got = a._product(b, _increasing)
        assert got == x2 * x2 and _is_normal(got)
    # zero operands
    zero = SymLaurent.zero(2)
    for a, b in ((zero, x1), (x1, zero), (zero, zero)):
        got = a._product(b, _anything)
        assert got == zero and _is_normal(got)
    with pytest.raises(ValueError):
        x1._product(SymLaurent.monomial(3, (1, 0, 0)), _anything)
    # the field limit: that of __mul__, which runs the same kernel, its
    # bounds re-read once past it
    big = SymLaurent.monomial(2, (LIMIT - 1, 0))
    ran_ahead = SymLaurent.monomial(2, (100, 0)) * SymLaurent.monomial(2, (-100, 0))
    assert big._product(x1, _anything) == SymLaurent.monomial(2, (LIMIT, 0))
    assert big._product(ran_ahead, _anything) == big
    low = SymLaurent.constant(2, VLaurent.v_power(-LIMIT))
    for a, b in ((big, x1 * x1), (low, SymLaurent.constant(2, VLaurent.v_power(-1)))):
        for product in (lambda: a * b, lambda: a._product(b, _anything)):
            with pytest.raises(OverflowError):
                product()
                pytest.fail("a value past the field limit was returned")


class _Counting:
    """A stable rule that records every tuple it is asked about."""

    def __init__(self, rule):
        self.rule, self.seen = rule, []

    def __call__(self, e, *args):
        self.seen.append(e)
        return self.rule(e, *args)


def test_a_stable_rule_runs_once_per_prefix(monkeypatch):
    rng = random.Random("prefix-cache")
    values = []
    for _ in range(300):
        terms = {tuple(rng.randint(-1, 2) for _ in range(3)): rng.randint(-2, 2) for _ in range(5)}
        values.append(SymLaurent(3, {e: VLaurent.v_power(k) for e, k in terms.items()}))
    prefixes = sorted({e for a in values for e in a.c})
    keep = _Counting(_in_cone)
    torus_weight = rankin._torus_weight
    weight = _Counting(torus_weight)
    monkeypatch.setattr(rankin, "_torus_weight", weight)
    rankin._psi_rule.cache_clear()
    for _ in range(2):
        for a in values:
            assert a.restrict(keep) == _restricted(a, _in_cone)
            got = psi_alternant(WhittakerData._of(a), 3, 2, 4)
            assert got == _relabelled(a, 2, lambda lam: _psi_key(lam, 3, 2, 4))
    assert sorted(keep.seen) == prefixes and sorted(weight.seen) == prefixes
    # the kept product itself: one call per X-prefix of a nonzero product term
    e1 = SymLaurent(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    keep = _Counting(_increasing)
    for _ in range(2):
        for a in values:
            assert a._product(e1, keep) == _restricted(a * e1, _increasing)
    assert sorted(keep.seen) == sorted({e for a in values for e in (a * e1).c})

    # the moves' cone test and psi_alternant's rule, through their callers
    data = [random_whittaker_data(rng, 2, max_norm=3, max_entries=6) for _ in range(200)]
    cone = _Counting(whittaker._in_cone)
    monkeypatch.setattr(whittaker, "_in_cone", cone)
    moved = [theta_data(d) for d in data + data]
    assert sorted(cone.seen) == sorted({e for d in data for e in (d.gen * whittaker._THETA).c})
    weight = _Counting(torus_weight)
    monkeypatch.setattr(rankin, "_torus_weight", weight)
    rankin._psi_rule.cache_clear()
    for d in moved:
        psi_alternant(d, 2, 2, 13)
    assert sorted(weight.seen) == sorted({e for d in moved for e in d.gen.c})


def test_a_new_rule_never_reads_another_rules_images(monkeypatch):
    # each rule is dropped before the next is made, so a cache keyed by
    # id() would hand a later rule the images of an earlier one; psi's
    # rule changes with t in the weights it drops and in its v-shift w = t
    a = SymLaurent(2, {(i, j): VLaurent.v_power(i) for i in range(-2, 3) for j in range(-2, 3)})
    psi_rule, current = rankin._psi_rule(2, 2), {}

    def changing(t: int):
        # psi_rule's image of e, whose head + delta is (e_1 + 1, e_2), with w = t
        def rule(e):
            return None if e[0] == t % 5 - 2 else (*psi_rule(e)[:2], t, *psi_rule(e)[3:])

        return rule

    monkeypatch.setattr(rankin, "_psi_rule", lambda n, r: current["rule"])
    for t in range(12):
        keep = lambda e, t=t: (3 * e[0] + e[1]) % 4 == t % 4  # noqa: E731
        assert a.restrict(keep) == _restricted(a, keep)
        current["rule"] = changing(t)
        want = _relabelled(a, 2, lambda e, t=t: None if e[0] == t % 5 - 2 else ((e[0] + 1, e[1]), t))
        assert psi_alternant(WhittakerData._of(a), 2, 2, 8) == want
        del keep, current["rule"]


def test_the_prefix_cache_stays_within_its_bound():
    bound = rings._prefix_image.cache_info().maxsize
    assert bound == 1 << 16
    # more distinct (rule, prefix) pairs than the bound: 4 rules on 18,225
    # prefixes each
    exps = [(i, j) for i in range(-67, 68) for j in range(-67, 68)]
    a = SymLaurent(2, dict.fromkeys(exps, 1))
    for t in range(4):
        keep = lambda e, t=t: sum(e) % 4 == t  # noqa: E731
        assert len(a.restrict(keep).num) == sum(map(keep, exps))
        assert rings._prefix_image.cache_info().currsize <= bound
    assert rings._prefix_image.cache_info().currsize == bound
    # past the bound the oldest verdicts go, and new ones stay right
    kept = a.restrict(_increasing)
    assert kept == SymLaurent(2, dict.fromkeys(filter(_increasing, exps), 1))
    rings._prefix_image.cache_clear()
