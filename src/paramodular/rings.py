"""Exact coefficient rings used everywhere else in the package.

Two Laurent polynomial classes on one store, and a series class over them,
all built on ints and ``fractions.Fraction``:

``SymLaurent``
    Laurent polynomial in X_1 .. X_r over Q[v, v^-1], with the convention
    q = v**2.  Working in v instead of q keeps every half-integral power of
    q (modulus characters, epsilon factors, normalized Whittaker values)
    polynomial, so no square roots of rationals are ever needed.  Stored
    flat: one map ``num`` from (x_1, .., x_r, v) exponent tuples to int
    numerators over one positive int ``den``, in normal form (no zero
    numerator, gcd(den, numerators) = 1, den = 1 for zero), so equality is
    a plain comparison of the dict and the int.  A product is one integer
    convolution and a sum works over the lcm of the two denominators, and
    no Fraction is built on the way.  Despite the name the container holds
    arbitrary Laurent polynomials; symmetry and inversion-invariance are
    *properties* tested by :func:`is_symmetric` and :func:`is_in_s0`.

``VLaurent``
    The case r = 0, keyed (e,): the same store, normal form and arithmetic.
    It is the coefficient type of the nested form {X-exponents: VLaurent |
    int | Fraction} that the SymLaurent constructor takes and its read-only
    ``c`` view gives back; a VLaurent's own ``c`` is {e: Fraction}.  Views
    are for readers outside this module and built at most once per object.

``TruncSeries``
    Power series in a formal variable Y, truncated at an explicit order.
    Coefficients live in any ring with ``+``, ``*``, ``==`` and a truth
    value that is false exactly at zero (SymLaurent in symbolic mode,
    Fraction in evaluation mode).  Degrees start at 0.  The truncation
    order of a sum or product is the smaller of the two operands' orders;
    ``trunc=None`` marks an exactly-known polynomial.

All values are normalized (no stored zero coefficients) and treated as
immutable, so an operation on a zero may return that zero.  Term order for
serialization and printing is lexicographic on exponent tuples.
"""

from __future__ import annotations

import heapq
import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Iterable, Mapping

Scalar = int | Fraction
Key = tuple[int, ...]


def _over_lcm(terms: Mapping[Key, tuple[int, int]]) -> tuple[dict[Key, int], int]:
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
    """The flat store and the arithmetic of both Laurent types: ``num`` maps
    exponent tuples of length r + 1, v's last, to int numerators over
    ``den``, in normal form.  Each subclass supplies ``_coerced``, which
    brings an operand into its own class or returns None; a result has the
    class of its operand."""

    __slots__ = ("r", "num", "den", "_view")

    @classmethod
    def _wrap(cls, r: int, num: dict[Key, int], den: int):
        """Wrap a numerator map that is already in normal form over den."""
        out = cls.__new__(cls)
        out.r, out.num, out.den, out._view = r, num, den, None
        return out

    @classmethod
    def _normal(cls, r: int, num: dict[Key, int], den: int):
        """Wrap a numerator map without zero entries over a positive den,
        dividing out their common factor (den becomes 1 when num is empty)."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: x // g for k, x in num.items()}
        return cls._wrap(r, num, den)

    @classmethod
    def _scalar(cls, r: int, x: Scalar):
        return cls._wrap(r, {(0,) * (r + 1): x.numerator} if x else {}, x.denominator)

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
        return self._normal(self.r, c, den)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.r, {k: -x for k, x in self.num.items()}, self.den)

    def __mul__(self, other: Any):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        add = operator.add
        a, b = (self.num, o.num) if len(self.num) >= len(o.num) else (o.num, self.num)
        if not b:
            return self if not self.num else o
        if len(b) == 1:
            # a term times a polynomial: no exponents collide, nothing cancels
            ((k2, x2),) = b.items()
            c = {tuple(map(add, k1, k2)): x1 * x2 for k1, x1 in a.items()}
        else:
            c = {}
            get = c.get
            right = list(b.items())
            for k1, x1 in a.items():
                for k2, x2 in right:
                    k = tuple(map(add, k1, k2))
                    c[k] = get(k, 0) + x1 * x2
            c = {k: x for k, x in c.items() if x}
        return self._normal(self.r, c, self.den * o.den)

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
            base = base * base
            k >>= 1
        return result

    __hash__ = None  # type: ignore[assignment]

    def _evaluate(self, pt: tuple[Fraction, ...]) -> Fraction:
        """The value at pt (v last) as one sum of ints: coordinate p/q with
        exponents in lo..hi (lo <= 0 <= hi) maps a to p^(a-lo) q^(hi-a) over
        q^hi p^-lo.  A zero entry meeting a negative exponent is rejected."""
        tables = []
        den = self.den
        for base, col in zip(pt, zip(*self.num)):
            p, q = base.numerator, base.denominator
            lo, hi = min(0, *col), max(0, *col)
            if p == 0 and lo < 0:
                raise ZeroDivisionError("a zero value hits a negative exponent")
            den *= q**hi * p**-lo
            tables.append({a: p ** (a - lo) * q ** (hi - a) for a in set(col)})
        total = 0
        for k, x in self.num.items():
            for a, table in zip(k, tables):
                x *= table[a]
            total += x
        return Fraction(total, den)


class VLaurent(_Laurent):
    """Laurent polynomial in v (q = v**2) with exact rational coefficients:
    the flat store with no X-variables, keyed (e,).  The constructor takes
    {e: int | Fraction}; ``c`` gives it back as a read-only view."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        terms: dict[Key, tuple[int, int]] = {}
        for e, x in (coeffs or {}).items():
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
            if x:
                terms[(int(e),)] = x.as_integer_ratio()
        self.num, self.den = _over_lcm(terms)
        self.r, self._view = 0, None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "VLaurent":
        return VLaurent()

    @staticmethod
    def one() -> "VLaurent":
        return VLaurent({0: 1})

    @staticmethod
    def from_scalar(x: Scalar) -> "VLaurent":
        return VLaurent({0: x})

    @staticmethod
    def v_power(k: int) -> "VLaurent":
        return VLaurent({k: 1})

    @staticmethod
    def q_power(k: int) -> "VLaurent":
        # q = v**2, so half-integral q-powers never appear.
        return VLaurent({2 * k: 1})

    def shifted(self, k: int) -> "VLaurent":
        """The product with v**k, as a shift of the exponents."""
        return self._wrap(0, {(e + k,): x for (e,), x in self.num.items()}, self.den)

    @property
    def c(self) -> Mapping[int, Fraction]:
        """Read-only map from v-exponents to nonzero Fractions, built on
        first access (values are immutable, so once suffices)."""
        if self._view is None:
            view = {e: Fraction(x, self.den) for (e,), x in self.num.items()}
            self._view = MappingProxyType(view)
        return self._view

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

    # -- queries -----------------------------------------------------------

    def min_exp(self) -> int:
        if not self.num:
            raise ValueError("zero polynomial has no exponents")
        return min(self.num)[0]

    def max_exp(self) -> int:
        if not self.num:
            raise ValueError("zero polynomial has no exponents")
        return max(self.num)[0]

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
    def from_json(data: Mapping[str, str]) -> "VLaurent":
        return VLaurent({int(e): Fraction(s) for e, s in data.items()})

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
        terms: dict[Key, tuple[int, int]] = {}
        # Coefficients given as VLaurents already are the nested view.
        view: dict[Key, VLaurent] | None = {}
        for e, x in (coeffs or {}).items():
            e = tuple(map(int, e))
            if len(e) != r:
                raise ValueError("exponent tuple length differs from variable count")
            if isinstance(x, VLaurent):
                for k, n in x.num.items():
                    terms[e + k] = (n, x.den)
                if view is not None and x:
                    view[e] = x
            elif isinstance(x, (int, Fraction)):
                view = None
                if x:
                    terms[(*e, 0)] = x.as_integer_ratio()
            else:
                raise TypeError(f"expected int, Fraction or VLaurent, got {type(x).__name__}")
        self.num, self.den = _over_lcm(terms)
        self.r, self._view = r, None if view is None else MappingProxyType(view)

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
            return SymLaurent._wrap(r, {(0,) * r + k: n for k, n in x.num.items()}, x.den)
        if isinstance(x, (int, Fraction)):
            return SymLaurent._scalar(r, x)
        raise TypeError(f"expected int, Fraction or VLaurent, got {type(x).__name__}")

    @staticmethod
    def monomial(r: int, exps: Iterable[int], coeff: Any = 1) -> "SymLaurent":
        return SymLaurent(r, {tuple(exps): coeff})

    @staticmethod
    def variable(r: int, i: int) -> "SymLaurent":
        e = [0] * r
        e[i] = 1
        return SymLaurent(r, {tuple(e): 1})

    # -- the nested view ----------------------------------------------------

    @property
    def c(self) -> Mapping[Key, VLaurent]:
        """Read-only map from X-exponent tuples to VLaurent coefficients,
        built on first access unless the constructor already had it (values
        are immutable, so once suffices).  No arithmetic here reads it."""
        if self._view is None:
            grouped: dict[Key, dict[Key, int]] = {}
            for k, x in sorted(self.num.items()):
                grouped.setdefault(k[:-1], {})[k[-1:]] = x
            self._view = MappingProxyType(
                {e: VLaurent._normal(0, vs, self.den) for e, vs in grouped.items()}
            )
        return self._view

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

    def _remapped(self, r: int, key) -> "SymLaurent":
        """The terms with exponent tuples key(k), dropping those where key
        returns None; key must be injective on the kept terms."""
        num = {}
        for k, x in self.num.items():
            k2 = key(k)
            if k2 is not None:
                num[k2] = x
        return SymLaurent._normal(r, num, self.den)

    def swap_vars(self, i: int, j: int) -> "SymLaurent":
        def key(k):
            f = list(k[:-1])
            f[i], f[j] = f[j], f[i]
            return (*f, k[-1])

        return self._remapped(self.r, key)

    def invert_vars(self, indices: Iterable[int]) -> "SymLaurent":
        """Substitute X_i -> X_i^-1 for each listed variable index."""
        idx = set(indices) & set(range(self.r))
        return self._remapped(
            self.r, lambda k: tuple(-a if i in idx else a for i, a in enumerate(k))
        )

    def invert_all_vars(self) -> "SymLaurent":
        return self.invert_vars(range(self.r))

    def restrict(self, keep) -> "SymLaurent":
        """The terms whose X-exponent tuple satisfies ``keep``."""
        return self._remapped(self.r, lambda k: k if keep(k[:-1]) else None)

    def substitute_last_zero(self) -> "SymLaurent":
        """Set X_r = 0 and drop that variable.  Rejects negative X_r
        exponents, where the substitution is undefined."""
        if self.r == 0:
            raise ValueError("no variable to specialize")

        def key(k):
            if k[-2] < 0:
                raise ValueError("negative exponent in the last variable; X_r = 0 undefined")
            return (*k[:-2], k[-1]) if k[-2] == 0 else None

        return self._remapped(self.r - 1, key)

    def total_degrees(self) -> set[int]:
        return {sum(k) - k[-1] for k in self.num}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.total_degrees()
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == {degree}

    def min_var_exp(self) -> int:
        """Smallest exponent appearing on any variable (0 for constants)."""
        return min([0, *(a for k in self.num for a in k[:-1])])

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

    @staticmethod
    def from_json(data: Iterable[Mapping], r: int) -> "SymLaurent":
        coeffs = {
            tuple(term["exponents"]): VLaurent.from_json(term["coeff"])
            for term in data
        }
        return SymLaurent(r, coeffs)

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


def is_symmetric(a: SymLaurent) -> bool:
    """True iff a is invariant under every permutation of the variables
    (checked on adjacent transpositions, which generate)."""
    for i in range(a.r - 1):
        if a.swap_vars(i, i + 1) != a:
            return False
    return True


def is_in_s0(a: SymLaurent) -> bool:
    """True iff a is symmetric and invariant under inverting any *pair* of
    variables.  The pair inversions and the symmetric group are generated by
    adjacent transpositions together with inversion of the last two
    variables, so only those are checked."""
    if not is_symmetric(a):
        return False
    if a.r >= 2:
        if a.invert_vars((a.r - 2, a.r - 1)) != a:
            return False
    return True


def poly_div_exact(num: SymLaurent, den: SymLaurent) -> SymLaurent:
    """Exact division of Laurent polynomials over Q[v, v^-1] of either class
    (the quotient has num's); ValueError if den does not divide num.

    Works on the flat maps, with v as one more variable: the
    lexicographically leading term of the remainder is divided by that of
    den at every step.  For an exact division the quotient's exponents are
    confined, coordinate by coordinate, to the window [min(num) - min(den),
    max(num) - max(den)] (minimum/maximum-weight components multiply
    without cancellation in a domain), so leaving the window proves
    inexactness and guarantees termination."""
    if num.r != den.r:
        raise ValueError("variable counts differ")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return num

    def corner(keys, pick) -> list[int]:
        return [pick(col) for col in zip(*keys)]

    lo = [a - b for a, b in zip(corner(num.num, min), corner(den.num, min))]
    hi = [a - b for a, b in zip(corner(num.num, max), corner(den.num, max))]
    dlead = max(den.num)
    dcoef = den.num[dlead]
    dtail = [(k, x) for k, x in den.num.items() if k != dlead]
    # The remainder's numerators (over num.den), and a heap of its keys
    # negated, so that the lexicographically largest pops first.  Every
    # key a step adds is below the one it removes.
    rem: dict[Key, Scalar] = dict(num.num)
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
    return num._wrap(num.r, *_over_lcm(quo)) * Fraction(den.den, num.den)


def vlaurent_div_exact(num: VLaurent, den: VLaurent) -> VLaurent:
    """Exact division in the Laurent ring Q[v, v^-1]; raises ValueError if
    den does not divide num."""
    return poly_div_exact(num, den)


class TruncSeries:
    """Truncated power series in Y with coefficients in a caller-chosen ring.

    Degrees start at 0.  ``trunc`` is the last trusted degree (``None`` =
    exact polynomial); a sum or product is trusted up to the smaller of its
    operands' horizons.  ``zero`` is the coefficient ring's zero, needed
    because coefficients are only duck-typed.
    """

    __slots__ = ("trunc", "coeffs", "zero")

    def __init__(self, coeffs: Mapping[int, Any], trunc: int | None, zero: Any):
        self.zero = zero
        self.trunc = trunc
        cc: dict[int, Any] = {}
        for k, x in coeffs.items():
            k = int(k)
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

    def is_zero(self) -> bool:
        return not self.coeffs

    def _horizon(self, other: "TruncSeries") -> int | None:
        if self.trunc is None:
            return other.trunc
        if other.trunc is None:
            return self.trunc
        return min(self.trunc, other.trunc)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        t = self._horizon(other)
        keys = set(self.coeffs) | set(other.coeffs)
        out = {
            k: self.coeffs.get(k, self.zero) + other.coeffs.get(k, other.zero)
            for k in keys
            if t is None or k <= t
        }
        return TruncSeries(out, t, self.zero)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries({k: -x for k, x in self.coeffs.items()}, self.trunc, self.zero)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        t = self._horizon(other)
        out: dict[int, Any] = {}
        for k1, x1 in self.coeffs.items():
            for k2, x2 in other.coeffs.items():
                k = k1 + k2
                if t is not None and k > t:
                    continue
                p = x1 * x2
                out[k] = out[k] + p if k in out else p
        return TruncSeries(out, t, self.zero)

    def invert(self, trunc: int, one: Any) -> "TruncSeries":
        """Inverse series through the requested order; the constant
        coefficient must be exactly 1."""
        if not (self.get(0) == 1):
            raise ValueError("series inversion needs constant coefficient 1")
        if self.trunc is not None and self.trunc < trunc:
            raise ValueError("operand not known through the requested order")
        inv: dict[int, Any] = {0: one}
        for k in range(1, trunc + 1):
            acc = self.zero
            for j in range(1, k + 1):
                aj = self.coeffs.get(j)
                bj = inv.get(k - j)
                if aj is None or bj is None:
                    continue
                acc = acc + aj * bj
            acc = -acc
            if acc:
                inv[k] = acc
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
