"""Property oracles for Laurent polynomials and truncated series, used by
the tests only.

Written on the public API of ``paramodular.rings`` alone (the constructor
and the nested view ``c``; a series' ``coeffs``, ``trunc`` and ``zero``),
so that they check the flat store and the series kernel from outside
rather than through their own rules.  The series oracles form every
coefficient one product and one sum at a time.  ``unpacked`` alone reads
the store itself, for the tests of its layout.  ``unit_series`` is the
exact series 1 in a mode's ring.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from paramodular.rings import SymLaurent, TruncSeries, VLaurent, _pack, _unpack


def unpacked(a) -> dict[tuple[int, ...], int]:
    """The flat store of a Laurent value as {(x_1, .., x_r, v): numerator
    over a.den}, read with the module's own unpacking.  AssertionError
    unless every key is exactly the packing of its r + 1 exponents and the
    value's bound covers them."""
    out = {}
    for k, x in a.num.items():
        e = _unpack(k, a.r + 1)
        assert _pack(e) == k and max(map(abs, e)) <= a._bound, (k, e)
        out[e] = x
    return out


def _transposed(a: SymLaurent, i: int) -> SymLaurent:
    """a with the variables X_i and X_{i+1} exchanged."""

    def swap(e):
        e = list(e)
        e[i], e[i + 1] = e[i + 1], e[i]
        return tuple(e)

    return SymLaurent(a.r, {swap(e): x for e, x in a.c.items()})


def is_symmetric(a: SymLaurent) -> bool:
    """True iff a is invariant under every permutation of the variables
    (checked on adjacent transpositions, which generate)."""
    return all(_transposed(a, i) == a for i in range(a.r - 1))


def is_in_s0(a: SymLaurent) -> bool:
    """True iff a is symmetric and invariant under inverting any *pair* of
    variables.  The pair inversions and the symmetric group are generated by
    adjacent transpositions together with inversion of the last two
    variables, so only those are checked."""
    if not is_symmetric(a):
        return False
    if a.r < 2:
        return True
    inverted = SymLaurent(a.r, {(*e[:-2], -e[-2], -e[-1]): x for e, x in a.c.items()})
    return inverted == a


def is_homogeneous(a: SymLaurent, degree: int | None = None) -> bool:
    """True iff every term of a has the same total X-degree (``degree``,
    when given); the zero polynomial is homogeneous of every degree."""
    degrees = {sum(e) for e in a.c}
    if not degrees:
        return True
    return len(degrees) == 1 if degree is None else degrees == {degree}


def min_var_exp(a: SymLaurent) -> int:
    """Smallest exponent on any variable (0 for constants)."""
    return min([0, *(x for e in a.c for x in e)])


def flat_view(a) -> dict[tuple[int, ...], Fraction]:
    """{(x_1, .., x_r, v): coefficient} of a Laurent value, read off its
    nested view; a VLaurent's terms are keyed (v,)."""
    if isinstance(a, VLaurent):
        return {(e,): f for e, f in a.c.items()}
    return {(*e, k): f for e, x in a.c.items() for k, f in x.c.items()}


def laurent_product(a, b) -> dict[tuple[int, ...], Fraction]:
    """The flat view of a * b, one product of two terms at a time in tuple
    arithmetic: no Laurent product and no packed key is involved."""
    out: dict = {}
    for e1, f1 in flat_view(a).items():
        for e2, f2 in flat_view(b).items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + f1 * f2
    return {e: f for e, f in out.items() if f}


def unit_series(mode) -> TruncSeries:
    return TruncSeries({0: mode.one()}, None, mode.zero())


def series_product(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b, one coefficient product and one sum per pair of degrees, up
    to the smaller of the two horizons."""
    horizons = [t for t in (a.trunc, b.trunc) if t is not None]
    t = min(horizons) if horizons else None
    out: dict = {}
    for k1, x1 in a.coeffs.items():
        for k2, x2 in b.coeffs.items():
            k = k1 + k2
            if t is not None and k > t:
                continue
            p = x1 * x2
            out[k] = out[k] + p if k in out else p
    return TruncSeries(out, t, a.zero)


def series_inverse(s: TruncSeries, trunc: int) -> TruncSeries:
    """The inverse of a series with constant coefficient 1 through degree
    trunc, by the recurrence b_k = -(a_1 b_{k-1} + ... + a_k b_0), one
    product and one sum at a time."""
    inv = {0: s.coeffs[0]}
    for k in range(1, trunc + 1):
        acc = s.zero
        for j in range(1, k + 1):
            if j in s.coeffs and k - j in inv:
                acc = acc + s.coeffs[j] * inv[k - j]
        if acc:
            inv[k] = -acc
    return TruncSeries(inv, trunc, s.zero)
