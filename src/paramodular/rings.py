"""Exact coefficient rings used everywhere else in the package.

Two Laurent polynomial classes on one store, and a series class over them,
all built on ints and ``fractions.Fraction``:

``SymLaurent``
    Laurent polynomial in X_1 .. X_r over Q[v, v^-1], with the convention
    q = v**2.  Working in v instead of q keeps every half-integral power of
    q (modulus characters, epsilon factors, normalized Whittaker values)
    polynomial, so no square roots of rationals are ever needed.  Stored
    flat: one map ``num`` from packed exponent keys (below) to int
    numerators over one positive int ``den``, in normal form (no zero
    numerator, gcd(den, numerators) = 1, den = 1 for zero), so equality is
    a plain comparison of the dict and the int.  A product is one integer
    convolution and a sum works over the lcm of the two denominators, and
    no Fraction and no tuple is built on the way.  Despite the name the
    container holds arbitrary Laurent polynomials; symmetry and
    inversion-invariance are properties of particular values, which the
    type does not enforce.

``VLaurent``
    The case r = 0, keyed by v alone: the same store, normal form and
    arithmetic.  It is the coefficient type of the nested form
    {X-exponents: VLaurent | int | Fraction} that the SymLaurent
    constructor takes and its read-only ``c`` view gives back; a VLaurent's
    own ``c`` is {e: Fraction}.  A value holds only its flat store, so each
    read of ``c`` builds a fresh view (values are immutable, so it is
    always right); views are for readers outside this module.

``TruncSeries``
    Power series in a formal variable Y, truncated at an explicit order.
    Coefficients are SymLaurent (symbolic mode), VLaurent (the zeta
    series) or Fraction (evaluation mode).  Degrees start at 0.  A product
    or an inverse is formed by the plain degree rule, each coefficient a
    sum of products from the ring's zero, for the witnesses of failing
    cases and the tests; the verdicts multiply packed series (below),
    normalized once per degree.  The truncation order of a product is the
    smaller of the two operands' orders, and an inverse is known through
    the order asked for; ``trunc=None`` marks an exactly-known polynomial.

Packed keys.  The exponent tuple (x_1, .., x_r, v) of a term is one
non-negative int of r + 1 fields, W = 16 bits each, x_1's the highest and
v's the lowest.  A field holds its exponent plus the offset 2^(W-1), so an
exponent e with |e| <= 2^(W-1) - 1 = 32767 gives a field in 1 .. 2^W - 1.
As every field is non-negative and below 2^W, numeric order on keys is
lexicographic order on tuples, and the key of a sum of two tuples is the
sum of their keys minus the bias, the key of the zero tuple: a product of
two terms is one int addition.  A VLaurent key is one field, exactly the
low field of a SymLaurent key.  Tuples are read and written only at the
edges: the constructors, the views and ``_grouped`` (and so serialization,
printing and the trace index of Whittaker data), the rules that
``_prefix_image`` applies once per X-prefix per process (the verdicts that
keep the moves' Laurent products, ``_product``, and rankin's weight rule of
psi) and the two oracle divisions; evaluation, the variable
substitutions, the symmetry check, the rank rows of ``_scaled_row`` and the
Demazure steps of :mod:`paramodular.characters` work on fields.  A series
packs as one value (``_Packed``), the key of a term Y^y X^a v^e being
(y << W (r + 1)) plus that of (a, e): Y's is the top field and y >= 0, so
it takes no offset and has no limit, and key order is Y-degree order
first.

A field must never overflow into its neighbour, so every value carries
``_bound``, an upper bound on the |exponent| of its keys: a product's is the
sum of its operands', a sum's the larger of the two, and a shift by v^k
adds |k|; constructors take the largest exponent they are given, and the
characters' Demazure kernel, which builds its store directly, takes the
largest |entry| of its highest weight.  These sums run ahead of the true
exponents when exponents cancel, so an operation whose summed bound would
pass 32767 first re-reads its operands' bounds from their keys, which
keeps the check O(1) on the common path; only if the bound still passes
does it raise OverflowError, returning nothing.

All values are normalized (no stored zero coefficients) and treated as
immutable, so an operation on a zero may return that zero.  Term order for
serialization and printing is lexicographic on exponent tuples.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
import re
import struct
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Iterable, Mapping

Scalar = int | Fraction
Key = tuple[int, ...]
# the exponent keys VLaurent.to_json writes: str(e) for an int e
_EXPONENT_KEY = re.compile(r"0|-?[1-9][0-9]*")

# the width of a packed field (that of a struct "h"), its mask, the offset
# that makes it non-negative and the largest |exponent| it holds
_W = 16
_MASK = (1 << _W) - 1
_OFFSET = 1 << (_W - 1)
_LIMIT = _OFFSET - 1


def _pack(exps: Iterable[int]) -> int:
    """The key of an exponent tuple, its last entry in the lowest field;
    the entries must lie within _LIMIT, which the caller checks."""
    key = 0
    for e in exps:
        key = (key << _W) + e + _OFFSET
    return key


@functools.cache
def _bias(r: int) -> int:
    """The key of the zero exponent tuple of a value in r X-variables."""
    return _pack((0,) * (r + 1))


@functools.cache
def _layout(size: int) -> tuple:
    """How to read keys of size fields: a field e + offset with its top bit
    flipped is e in 16-bit two's complement, so a key xor the bias is the
    big-endian bytes of a struct of size signed shorts."""
    return struct.Struct(f">{size}h").unpack, _bias(size - 1), 2 * size


def _unpack(key: int, size: int) -> Key:
    """The exponent tuple of length size that key packs."""
    read, bias, nbytes = _layout(size)
    return read((key ^ bias).to_bytes(nbytes, "big"))


def _checked(bound: int, *values: "_Laurent") -> int:
    """bound, if it is within the largest exponent a field holds.  When
    bound is a fixed part plus the tracked bounds of values and passes the
    limit, each value's bound is first re-read from its keys (``_tighten``),
    so that a value whose exponents cancelled is not refused; OverflowError
    if the bound still passes the limit.  The common path is one
    comparison."""
    if bound > _LIMIT and values:
        fixed = bound - sum(x._bound for x in values)
        bound = fixed + sum(x._tighten() for x in values)
    if bound > _LIMIT:
        raise OverflowError(f"an exponent bound of {bound} exceeds the packed field limit {_LIMIT}")
    return bound


@functools.lru_cache(maxsize=1 << 16)
def _prefix_image(rule, prefix: int, size: int):
    """rule(a) for the exponent tuple a that the X-prefix packs (size
    fields), worked out once per process for each (rule, prefix, size), in
    one bounded cache: the verdicts that keep a Laurent ``_product`` and
    the weight images of rankin's psi.  The cache holds the rule object
    itself, never its id, so a rule built later never reads another's
    images; but it trusts a rule to be a pure function of a: one that reads
    state which can change gives stale answers."""
    return rule(_unpack(prefix, size))


def _over_lcm(terms: Mapping[int, tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Nonzero (numerator, denominator) pairs as int numerators over the lcm
    of the denominators.  If the numerators of each denominator share no
    factor with it (lowest-terms fractions, the terms of a normal-form
    value), the result is in normal form."""
    if len(terms) == 1:
        ((k, (n, d)),) = terms.items()
        return {k: n}, d
    den = math.lcm(*[d for _, d in terms.values()])
    return {k: n * (den // d) for k, (n, d) in terms.items()}, den


class _Laurent:
    """The flat store and the arithmetic of both Laurent types.  ``num``
    maps keys to int numerators over ``den``, in normal form.  A key packs
    an exponent tuple of length r + 1 into r + 1 fields of W = 16 bits, v's
    the lowest, each the exponent plus 2^(W-1); as no field is negative,
    numeric order on keys is lexicographic order on tuples.  The bias is
    the key of the zero tuple, so the product of keys k1 and k2 is
    k1 + k2 - bias, the bias taken off the outer operand's key once.
    ``_bound`` bounds every |exponent|; an operation whose bound would pass
    2^(W-1) - 1, also once re-read from the keys, raises OverflowError
    (see the module docstring).  Each subclass supplies ``_coerced``, which
    brings an operand into its own class or returns None; a result has the
    class of its operand."""

    __slots__ = ("r", "num", "den", "_bound")

    @classmethod
    def _wrap(cls, r: int, num: dict[int, int], den: int, bound: int):
        """Wrap a numerator map that is already in normal form over den,
        with a bound already checked."""
        out = cls.__new__(cls)
        out.r, out.num, out.den, out._bound = r, num, den, bound
        return out

    @classmethod
    def _normal(cls, r: int, num: dict[int, int], den: int, bound: int):
        """Wrap a numerator map without zero entries over a positive den,
        dividing out their common factor (den becomes 1 when num is empty)."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: x // g for k, x in num.items()}
        return cls._wrap(r, num, den, bound)

    @classmethod
    def _scalar(cls, r: int, x: Scalar):
        return cls._wrap(r, {_bias(r): x.numerator} if x else {}, x.denominator, 0)

    def _tighten(self) -> int:
        """Re-read ``_bound`` from the keys, the largest |exponent| in any
        field (0 for zero), and return it.  It never rises, so the value
        still passes every check it passed; only the bound changes."""
        bound = 0
        if self.num:
            for s in range(0, _W * (self.r + 1), _W):
                col = {k >> s & _MASK for k in self.num}
                bound = max(bound, max(col) - _OFFSET, _OFFSET - min(col))
        self._bound = bound
        return bound

    def __eq__(self, other: Any) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: Any):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self.den, o.den)
        f1, f2 = den // self.den, den // o.den
        c = dict(self.num) if f1 == 1 else {k: x * f1 for k, x in self.num.items()}
        for k, x in o.num.items():
            s = c.get(k, 0) + x * f2
            if s:
                c[k] = s
            else:
                del c[k]
        bound = self._bound if self._bound >= o._bound else o._bound
        return self._normal(self.r, c, den, bound)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.r, {k: -x for k, x in self.num.items()}, self.den, self._bound)

    def __mul__(self, other: Any):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._product(o)

    def _product(self, other: "_Laurent", keep=None):
        """self * other, other of self's class, in one accumulator under the
        operands' summed bound; with ``keep``, a pure function of X-exponent
        tuples, only the terms it admits, read once per X-prefix per process
        (``_prefix_image``).  ValueError if the variable counts differ."""
        r = self.r
        if other.r != r:
            raise ValueError("variable counts differ")
        a, b = (self, other) if len(self.num) >= len(other.num) else (other, self)
        if not b.num:
            return b
        bound = _checked(a._bound + b._bound, a, b)
        bias = _bias(r)
        if len(b.num) == 1:
            # a term times a polynomial: no exponents collide, nothing cancels
            ((k2, x2),) = b.num.items()
            k2 -= bias
            c = {k1 + k2: x1 * x2 for k1, x1 in a.num.items()}
        else:
            c = {}
            get = c.get
            for k2, x2 in b.num.items():
                k2 -= bias
                for k1, x1 in a.num.items():
                    k = k1 + k2
                    c[k] = get(k, 0) + x1 * x2
        # one pass drops the cancelled terms and those keep refuses
        if keep is not None:
            c = {k: x for k, x in c.items() if x and _prefix_image(keep, k >> _W, r)}
        elif len(b.num) > 1:
            c = {k: x for k, x in c.items() if x}
        return self._normal(r, c, a.den * b.den, bound)

    def __sub__(self, other: Any):
        return self + (-other)

    def __rsub__(self, other: Any):
        return -self + other

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self._coerced(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __hash__ = None  # type: ignore[assignment]

    def _evaluate(self, pt: tuple[Fraction, ...]) -> Fraction:
        """The value at pt (v last) as one sum of ints: coordinate p/q with
        exponents in lo..hi (lo <= 0 <= hi) maps a to p^(a-lo) q^(hi-a) over
        q^hi p^-lo.  A zero entry meeting a negative exponent is rejected.
        Exponents stay in their fields: a field f is a + offset."""
        tables = []
        den = self.den
        for base, s in zip(pt, range(_W * self.r, -1, -_W)):
            col = {k >> s & _MASK for k in self.num}
            col.add(_OFFSET)
            p, q = base.numerator, base.denominator
            lo, hi = min(col) - _OFFSET, max(col) - _OFFSET
            if p == 0 and lo < 0:
                raise ZeroDivisionError("a zero value hits a negative exponent")
            den *= q**hi * p**-lo
            tables.append((s, {f: p ** (f - lo - _OFFSET) * q ** (hi + _OFFSET - f) for f in col}))
        total = 0
        for k, x in self.num.items():
            for s, table in tables:
                x *= table[k >> s & _MASK]
            total += x
        return Fraction(total, den)


class VLaurent(_Laurent):
    """Laurent polynomial in v (q = v**2) with exact rational coefficients:
    the flat store with no X-variables, a key being the one field e +
    offset.  The constructor takes {e: int | Fraction}; ``c`` gives it back
    as a read-only view."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        terms: dict[int, tuple[int, int]] = {}
        bound = 0
        for e, x in (coeffs or {}).items():
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
            if x:
                e = operator.index(e)
                if e > bound or -e > bound:
                    bound = abs(e)
                terms[e + _OFFSET] = x.as_integer_ratio()
        self._bound = _checked(bound)
        self.num, self.den = _over_lcm(terms)
        self.r = 0

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "VLaurent":
        return VLaurent()

    @staticmethod
    def one() -> "VLaurent":
        return VLaurent({0: 1})

    @staticmethod
    def v_power(k: int) -> "VLaurent":
        return VLaurent({k: 1})

    @staticmethod
    def q_power(k: int) -> "VLaurent":
        # q = v**2, so half-integral q-powers never appear.
        return VLaurent({2 * k: 1})

    @property
    def c(self) -> Mapping[int, Fraction]:
        """Read-only map from v-exponents to nonzero Fractions, built afresh
        on each read."""
        return MappingProxyType({e - _OFFSET: Fraction(x, self.den) for e, x in self.num.items()})

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other: Any) -> "VLaurent | None":
        if isinstance(other, VLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return VLaurent._scalar(0, other)
        return None

    # An own binding of the shared rule, so that bench/tracer.py can wrap
    # VLaurent.__mul__ by name.
    def __mul__(self, other: Any) -> "VLaurent":
        return _Laurent.__mul__(self, other)

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, v_value: Fraction) -> Fraction:
        """Exact evaluation at a rational v.  v = 0 is rejected when a
        negative exponent is present."""
        return self._evaluate((Fraction(v_value),))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {
            str(e): f"{x.numerator}/{x.denominator}"
            for e, x in sorted(self.c.items())
        }

    @staticmethod
    def from_json(data: Mapping[str, str | int]) -> "VLaurent":
        """The inverse of ``to_json``; a coefficient may also be an int, but
        never a float or a boolean, which would not be exact input.  An
        exponent key must be canonical decimal, as ``to_json`` writes it, so
        that no two keys name one exponent."""
        coeffs = {}
        for e, s in data.items():
            if not (isinstance(e, str) and _EXPONENT_KEY.fullmatch(e)):
                raise ValueError(f"expected a canonical decimal exponent key, got {e!r}")
            if type(s) not in (str, int):
                raise TypeError(f"expected a coefficient string or int, got {s!r}")
            coeffs[int(e)] = Fraction(s)
        return VLaurent(coeffs)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for e, x in sorted(self.c.items()):
            if e == 0:
                parts.append(str(x))
            elif e == 1:
                parts.append(f"{x}*v")
            else:
                parts.append(f"{x}*v^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"VLaurent({dict(self.c)!r})"


class SymLaurent(_Laurent):
    """Laurent polynomial in X_1..X_r over Q[v, v^-1] in the flat store.
    The constructor takes the nested form {X-exponents: VLaurent | int |
    Fraction}; ``c`` gives it back as a read-only view."""

    __slots__ = ()

    def __init__(self, r: int, coeffs: Mapping[Key, Any] | None = None):
        if r < 0:
            raise ValueError("variable count must be non-negative")
        terms: dict[int, tuple[int, int]] = {}
        bound = 0
        # the X-fields of the zero tuple, over a zero v-field
        xbias = _bias(r) - _OFFSET
        for e, x in (coeffs or {}).items():
            e = tuple(map(operator.index, e))
            if len(e) != r:
                raise ValueError("exponent tuple length differs from variable count")
            # the X-fields of every key of this term, packed inline
            prefix = 0
            for a in e:
                prefix = (prefix << _W) + a
                if a > bound or -a > bound:
                    bound = abs(a)
            prefix = (prefix << _W) + xbias
            if isinstance(x, VLaurent):
                if x._bound > bound:
                    bound = x._bound
                for k, n in x.num.items():
                    terms[prefix + k] = (n, x.den)
            elif isinstance(x, (int, Fraction)):
                if x:
                    terms[prefix + _OFFSET] = x.as_integer_ratio()
            else:
                raise TypeError(f"expected int, Fraction or VLaurent, got {type(x).__name__}")
        self._bound = _checked(bound)
        self.num, self.den = _over_lcm(terms)
        self.r = r

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(r: int) -> "SymLaurent":
        return SymLaurent.constant(r, 0)

    @staticmethod
    def one(r: int) -> "SymLaurent":
        return SymLaurent.constant(r, 1)

    @staticmethod
    def constant(r: int, x: VLaurent | Scalar) -> "SymLaurent":
        if r < 0:
            raise ValueError("variable count must be non-negative")
        if isinstance(x, VLaurent):
            # a VLaurent key is the low field: add the zero X-fields
            shift = _bias(r) - _OFFSET
            return SymLaurent._wrap(r, {k + shift: n for k, n in x.num.items()}, x.den, x._bound)
        if isinstance(x, (int, Fraction)):
            return SymLaurent._scalar(r, x)
        raise TypeError(f"expected int, Fraction or VLaurent, got {type(x).__name__}")

    @staticmethod
    def monomial(r: int, exps: Iterable[int], coeff: Any = 1) -> "SymLaurent":
        return SymLaurent(r, {tuple(exps): coeff})

    @staticmethod
    def _of_terms(r: int, terms: Iterable[tuple[Key, int, int]], den: int) -> "SymLaurent":
        """The sum of x / den X^exps v^e over the terms (exps, e, x), each
        exps of length r and each pair (exps, e) once, with nonzero int x
        over a positive int den: packed, checked against the field limit
        and normalized once, with no VLaurent, Fraction or lcm per term."""
        # the X-fields of the zero tuple, over a zero v-field
        xbias = _bias(r) - _OFFSET
        num = {}
        bound = 0
        for exps, e, x in terms:
            key = 0
            for a in exps:
                key = (key << _W) + a
                if a > bound or -a > bound:
                    bound = abs(a)
            if e > bound or -e > bound:
                bound = abs(e)
            num[(key << _W) + xbias + e + _OFFSET] = x
        return SymLaurent._normal(r, num, den, _checked(bound))

    # -- the nested view ----------------------------------------------------

    @property
    def c(self) -> Mapping[Key, VLaurent]:
        """Read-only map from X-exponent tuples to VLaurent coefficients,
        built afresh on each read; no arithmetic reads it.  A key's X-fields
        are key >> W and its VLaurent key the low field."""
        return MappingProxyType(
            {
                e: VLaurent._normal(0, {v + _OFFSET: x for v, x in terms}, self.den, self._bound)
                for e, terms in self._grouped()
            }
        )

    def _grouped(self) -> list[tuple[Key, list[tuple[int, int]]]]:
        """The content of the nested view with no VLaurent and no gcd: each
        X-exponent tuple, in lexicographic order, with its (v-exponent,
        numerator) pairs over ``den``, v-exponents ascending."""
        out: list[tuple[Key, list[tuple[int, int]]]] = []
        last = None
        for k, x in sorted(self.num.items()):
            p = k >> _W
            if p != last:
                terms: list[tuple[int, int]] = []
                out.append((_unpack(p, self.r), terms))
                last = p
            terms.append(((k & _MASK) - _OFFSET, x))
        return out

    def _scaled_row(self) -> tuple[int, dict[int, list[tuple[int, int]]]]:
        """The span of the v-exponents (highest minus lowest), and the
        numerators scaled by v^(-lowest) as lists of (v-exponent, numerator)
        pairs, keyed by packed X-prefixes, whose order is that of the
        X-exponent tuples.  A low field is its v-exponent plus the offset,
        so field differences are exponent differences.  The shared
        denominator is left out."""
        fields = [k & _MASK for k in self.num]
        lo = min(fields, default=0)
        row: dict[int, list[tuple[int, int]]] = {}
        for k, x in self.num.items():
            row.setdefault(k >> _W, []).append(((k & _MASK) - lo, x))
        return max(fields, default=0) - lo, row

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other: Any) -> "SymLaurent | None":
        if isinstance(other, SymLaurent):
            if other.r != self.r:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction, VLaurent)):
            return SymLaurent.constant(self.r, other)
        return None

    # Own bindings of the shared rules, so that bench/tracer.py can wrap
    # SymLaurent.__add__, __mul__ and evaluate by name.
    def __add__(self, other: Any) -> "SymLaurent":
        return _Laurent.__add__(self, other)

    __radd__ = __add__

    def __mul__(self, other: Any) -> "SymLaurent":
        return _Laurent.__mul__(self, other)

    __rmul__ = __mul__

    # -- variable manipulations ---------------------------------------------
    #
    # Each keeps or moves keys without raising any |exponent|, so the bound
    # carries over.

    def invert_all_vars(self) -> "SymLaurent":
        """Substitute X_i -> X_i^-1 for every variable; v is left alone.
        An X-field f becomes 2 * offset - f, so the X-fields of a key k,
        k - (k & mask), become 2 * xbias minus them."""
        xbias = _bias(self.r) - _OFFSET
        num = {2 * xbias - k + 2 * (k & _MASK): x for k, x in self.num.items()}
        return SymLaurent._wrap(self.r, num, self.den, self._bound)

    def restrict(self, keep) -> "SymLaurent":
        """The terms whose X-exponent tuple satisfies ``keep`` (``_product``)."""
        return self._product(SymLaurent.one(self.r), keep)

    def _symmetric(self) -> bool:
        """True iff the value is invariant under every permutation of
        X_1..X_r: checked on the adjacent transpositions, which generate,
        by exchanging two fields of each packed key."""
        num = self.num
        for s in range(_W, _W * self.r, _W):
            # X_(i+1)'s field at s and X_i's at s + W
            for k, x in num.items():
                d = (k >> s & _MASK) - (k >> (s + _W) & _MASK)
                if d and num.get(k + (d << (s + _W)) - (d << s)) != x:
                    return False
        return True

    def substitute_last_zero(self) -> "SymLaurent":
        """Set X_r = 0 and drop that variable, whose field sits just above
        v's.  Rejects negative X_r exponents, where the substitution is
        undefined."""
        if self.r == 0:
            raise ValueError("no variable to specialize")
        num = {}
        for k, x in self.num.items():
            last = (k >> _W) & _MASK
            if last < _OFFSET:
                raise ValueError("negative exponent in the last variable; X_r = 0 undefined")
            if last == _OFFSET:
                num[((k >> 2 * _W) << _W) + (k & _MASK)] = x
        return SymLaurent._normal(self.r - 1, num, self.den, self._bound)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Iterable[Scalar], v_value: Fraction) -> Fraction:
        """Exact evaluation: X_i -> point[i], v -> v_value.  A zero entry in
        the point, or v = 0, is rejected whenever it meets a negative
        exponent."""
        pt = tuple(Fraction(x) for x in point)
        if len(pt) != self.r:
            raise ValueError("point length differs from variable count")
        return self._evaluate((*pt, Fraction(v_value)))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[dict]:
        return [{"exponents": list(e), "coeff": x.to_json()} for e, x in sorted(self.c.items())]

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for e, x in sorted(self.c.items()):
            mono = "*".join(
                f"X{i + 1}^{k}" if k != 1 else f"X{i + 1}"
                for i, k in enumerate(e)
                if k != 0
            )
            cs = str(x)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        body = ", ".join(f"{e}: {x}" for e, x in sorted(self.c.items()))
        return f"SymLaurent({self.r}, {{{body}}})"


def poly_div_exact(num: SymLaurent, den: SymLaurent) -> SymLaurent:
    """Exact division of Laurent polynomials over Q[v, v^-1] of either class
    (the quotient has num's); ValueError if den does not divide num.

    Works on the flat maps, with v as one more variable: the
    lexicographically leading term of the remainder is divided by that of
    den at every step.  For an exact division the quotient's exponents are
    confined, coordinate by coordinate, to the window [min(num) - min(den),
    max(num) - max(den)] (minimum/maximum-weight components multiply
    without cancellation in a domain), so leaving the window proves
    inexactness and guarantees termination.  The keys are unpacked to
    exponent tuples on entry and the quotient's packed on exit."""
    if num.r != den.r:
        raise ValueError("variable counts differ")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return num
    size = num.r + 1
    nterms = {_unpack(k, size): x for k, x in num.num.items()}
    dterms = {_unpack(k, size): x for k, x in den.num.items()}

    def corner(keys, pick) -> list[int]:
        return [pick(col) for col in zip(*keys)]

    lo = [a - b for a, b in zip(corner(nterms, min), corner(dterms, min))]
    hi = [a - b for a, b in zip(corner(nterms, max), corner(dterms, max))]
    dlead = max(dterms)
    dcoef = dterms[dlead]
    dtail = [(k, x) for k, x in dterms.items() if k != dlead]
    # The remainder's numerators (over num.den), and a heap of its keys
    # negated, so that the lexicographically largest pops first.  Every
    # key a step adds is below the one it removes.
    rem: dict[Key, Scalar] = nterms
    heap = [tuple(-a for a in k) for k in rem]
    heapq.heapify(heap)
    quo: dict[Key, tuple[int, int]] = {}
    while heap:
        lead = tuple(-a for a in heapq.heappop(heap))
        x = rem.pop(lead, 0)
        if not x:
            continue
        e = tuple(map(operator.sub, lead, dlead))
        if any(k < l or k > h for k, l, h in zip(e, lo, hi)):
            raise ValueError("inexact Laurent polynomial division")
        coef = Fraction(x, dcoef)
        quo[e] = (coef.numerator, coef.denominator)
        if coef.denominator == 1:
            coef = coef.numerator
        for k, y in dtail:
            k = tuple(map(operator.add, e, k))
            s = rem.get(k)
            if s is None:
                heapq.heappush(heap, tuple(-a for a in k))
                s = 0
            s -= coef * y
            if s:
                rem[k] = s
            else:
                del rem[k]
    # num/den = (quo / num.den) / (1 / den.den)
    bound = _checked(max(map(abs, itertools.chain.from_iterable(quo))))
    quotient = num._wrap(num.r, *_over_lcm({_pack(k): x for k, x in quo.items()}), bound)
    return quotient * Fraction(den.den, num.den)


def vlaurent_div_exact(num: VLaurent, den: VLaurent) -> VLaurent:
    """Exact division in the Laurent ring Q[v, v^-1]; raises ValueError if
    den does not divide num."""
    return poly_div_exact(num, den)


class _Packed:
    """A Y-series over the ring of ``zero`` as one packed value (see the
    module docstring): ``terms`` are (key, numerator) pairs over one
    ``den``, and ``bound`` bounds the |exponent| of every Laurent field."""

    __slots__ = ("zero", "terms", "den", "bound")

    def __init__(self, zero: _Laurent, terms: list[tuple[int, int]], den: int, bound: int):
        self.zero, self.terms, self.den, self.bound = zero, terms, den, bound

    @classmethod
    def of(cls, coeffs: Mapping[int, Any], zero: _Laurent) -> "_Packed":
        """The series {y: c}, each c brought into zero's ring by ``_coerced``."""
        cs = {y: zero._coerced(c) for y, c in coeffs.items()}
        den, terms = math.lcm(*[c.den for c in cs.values()]), []
        for y, c in cs.items():
            y, f = y << _W * (zero.r + 1), den // c.den
            terms += [(y + k, x * f) for k, x in c.num.items()]
        return cls(zero, terms, den, max([c._bound for c in cs.values()], default=0))

    @classmethod
    def powers(cls, zero: _Laurent, y: int, exps: Key, coeffs: list[int], den: int) -> "_Packed":
        """sum_k (coeffs[k] / den) m^k for the monomial m = Y^y X^a v^e,
        exps = (a, e), as the factors of P_phi and 1 / P_wedge2 are: the
        key of term k is the bias plus k times m's key step, its key less
        the bias."""
        step = (y << _W * (zero.r + 1)) + _pack(exps) - _bias(zero.r)
        terms = [(_bias(zero.r) + k * step, x) for k, x in enumerate(coeffs) if x]
        return cls(zero, terms, den, _checked((len(coeffs) - 1) * max(map(abs, exps))))

    def times(self, other: "_Packed", t: int | None) -> "_Packed":
        """The product through Y-degree t (None: all), over the product of the
        dens, in one accumulator (ValueError if the variable counts
        differ).  Sorted, the longer operand's terms are sorted by
        Y-degree, so each term of the other meets only the prefix within t,
        found by bisection: no pair past t is formed.  The bound is the
        operands' sum; past the limit it is re-read from the keys, over the
        pairs of degrees within t, before OverflowError."""
        if self.zero.r != other.zero.r:
            raise ValueError("variable counts differ")
        a, b = sorted((self, other), key=lambda x: len(x.terms))
        shift, bias = _W * (self.zero.r + 1), _bias(self.zero.r)
        if t is None:
            t = sum(max(x.terms)[0] >> shift for x in (a, b)) if a.terms and b.terms else 0
        bound = a.bound + b.bound
        if bound > _LIMIT:
            da, db = ({y: c._tighten() for y, c in x.series(None).coeffs.items()} for x in (a, b))
            bound = _checked(max([s + z for y, s in da.items() for w, z in db.items() if y + w <= t], default=0))
        inner, acc = sorted(b.terms, key=operator.itemgetter(0)), {}
        get = acc.get
        for k1, x1 in a.terms:
            room = t + 1 - (k1 >> shift)
            if room > 0:
                k1 -= bias
                pairs = itertools.islice(inner, bisect.bisect_left(inner, (room << shift,)))
                if not acc:  # the products of one term have distinct keys
                    acc.update({k1 + k2: x1 * x2 for k2, x2 in pairs})
                    continue
                for k2, x2 in pairs:
                    k = k1 + k2
                    acc[k] = get(k, 0) + x1 * x2
        return _Packed(self.zero, [(k, x) for k, x in acc.items() if x], a.den * b.den, bound)

    def series(self, trunc: int | None) -> "TruncSeries":
        """The TruncSeries through trunc, each degree normalized once."""
        shift, groups = _W * (self.zero.r + 1), {}
        mask = (1 << shift) - 1
        for k, x in self.terms:
            groups.setdefault(k >> shift, {})[k & mask] = x
        coeffs = {y: self.zero._normal(self.zero.r, n, self.den, self.bound) for y, n in groups.items()}
        return TruncSeries(coeffs, trunc, self.zero)


class TruncSeries:
    """Truncated power series in Y with coefficients in a caller-chosen ring.

    Degrees start at 0.  ``trunc`` is the last trusted degree (``None`` =
    exact polynomial); a product is trusted up to the smaller of its
    operands' horizons.  ``zero`` is the coefficient ring's zero, which
    names the ring every product is formed in.
    """

    __slots__ = ("trunc", "coeffs", "zero")

    def __init__(self, coeffs: Mapping[int, Any], trunc: int | None, zero: Any):
        self.zero = zero
        self.trunc = trunc
        cc: dict[int, Any] = {}
        for k, x in coeffs.items():
            k = operator.index(k)
            if k < 0:
                raise ValueError("series degrees start at 0")
            if trunc is not None and k > trunc:
                continue
            if x:
                cc[k] = x
        self.coeffs = cc

    def get(self, k: int) -> Any:
        if self.trunc is not None and k > self.trunc:
            raise ValueError(f"coefficient {k} beyond truncation order {self.trunc}")
        return self.coeffs.get(k, self.zero)

    def _horizon(self, other: "TruncSeries") -> int | None:
        if self.trunc is None:
            return other.trunc
        if other.trunc is None:
            return self.trunc
        return min(self.trunc, other.trunc)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """The product by the plain degree rule, summed from the ring's zero."""
        t, out = self._horizon(other), {}
        for k1, x1 in self.coeffs.items():
            for k2, x2 in other.coeffs.items():
                k = k1 + k2
                if t is None or k <= t:
                    out[k] = out.get(k, self.zero) + x1 * x2
        return TruncSeries(out, t, self.zero)

    def invert(self, trunc: int) -> "TruncSeries":
        """Inverse series through the requested order, b_k = -(a_1 b_(k-1) +
        .. + a_k b_0) summed from the ring's zero; the constant coefficient
        must be exactly 1, and is the inverse's too.  Nothing in src calls
        it; the tests and ``bench/tracer.py`` name it (ROADMAP item 25)."""
        one = self.get(0)
        if not (one == 1):
            raise ValueError("series inversion needs constant coefficient 1")
        if self.trunc is not None and self.trunc < trunc:
            raise ValueError("operand not known through the requested order")
        a, inv = self.coeffs, {0: one}
        for k in range(1, trunc + 1):
            acc = sum([a[j] * inv[k - j] for j in range(1, k + 1) if j in a and k - j in inv], self.zero)
            if acc:
                inv[k] = -acc
        return TruncSeries(inv, trunc, self.zero)

    def first_mismatch(self, other: "TruncSeries", through: int) -> int | None:
        """The lowest degree <= ``through`` at which the two series differ,
        or None; both must be trusted through that degree."""
        t = self._horizon(other)
        if t is not None and through > t:
            raise ValueError("comparison beyond a truncation order")
        for k in range(through + 1):
            if not (self.get(k) == other.get(k)):
                return k
        return None

    def __repr__(self) -> str:
        body = ", ".join(f"Y^{k}: {x}" for k, x in sorted(self.coeffs.items()))
        return f"TruncSeries({{{body}}}, trunc={self.trunc})"
