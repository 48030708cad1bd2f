"""Exact coefficient rings used everywhere else in the package.

Three layers, all built on arbitrary-precision rationals
(``fractions.Fraction``):

``VLaurent``
    Laurent polynomial in a single formal variable v, with the convention
    q = v**2.  Working in v instead of q keeps every half-integral power of
    q (modulus characters, epsilon factors, normalized Whittaker values)
    polynomial, so no square roots of rationals are ever needed.

``SymLaurent``
    Laurent polynomial in X_1 .. X_r with VLaurent coefficients, stored as
    a map from integer exponent tuples to coefficients.  Exponents may be
    negative.  Despite the name the container holds arbitrary Laurent
    polynomials; symmetry and inversion-invariance are *properties* tested
    by :func:`is_symmetric` and :func:`is_in_s0`.

``TruncSeries``
    Power series in a formal variable Y, truncated at an explicit order.
    Coefficients live in any ring with ``+``, ``*`` and ``== 0``
    (SymLaurent in symbolic mode, Fraction in evaluation mode).  Degrees
    start at 0.  The truncation order of a sum or product is the smaller
    of the two operands' orders; ``trunc=None`` marks an exactly-known
    polynomial.

All values are normalized (no stored zero coefficients) and treated as
immutable: every operation returns a fresh object.  Term order for
serialization and printing is lexicographic on exponent tuples.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Any, Iterable, Mapping

Scalar = int | Fraction


def _as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class _Laurent:
    """Operators shared by the two Laurent types, derived from each type's
    ``_coerced``, ``+``, unary ``-``, ``*`` and coefficient map ``c``."""

    __slots__ = ()

    def __sub__(self, other: Any):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Any):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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

    def __eq__(self, other: Any) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.c == o.c

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.c)


class VLaurent(_Laurent):
    """Laurent polynomial in v (q = v**2) with exact rational coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, x in coeffs.items():
                f = _as_fraction(x)
                if f:
                    c[int(e)] = f
        self.c = c

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

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other: Any) -> "VLaurent | None":
        if isinstance(other, VLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return VLaurent.from_scalar(other)
        return None

    def __add__(self, other: Any) -> "VLaurent":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        c = dict(self.c)
        for e, x in o.c.items():
            s = c.get(e, Fraction(0)) + x
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = VLaurent()
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "VLaurent":
        out = VLaurent()
        out.c = {e: -x for e, x in self.c.items()}
        return out

    def __mul__(self, other: Any) -> "VLaurent":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        c: dict[int, Fraction] = {}
        for e1, x1 in self.c.items():
            for e2, x2 in o.c.items():
                e = e1 + e2
                p = x1 * x2
                s = c.get(e)
                s = p if s is None else s + p
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = VLaurent()
        out.c = c
        return out

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def min_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no exponents")
        return min(self.c)

    def max_exp(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no exponents")
        return max(self.c)

    def evaluate(self, v_value: Fraction) -> Fraction:
        """Exact evaluation at a rational v.  v = 0 is rejected when a
        negative exponent is present."""
        v_value = Fraction(v_value)
        total = Fraction(0)
        for e, x in self.c.items():
            if v_value == 0:
                if e < 0:
                    raise ZeroDivisionError("v = 0 hits a negative exponent")
                total += x if e == 0 else Fraction(0)
            else:
                total += x * v_value**e
        return total

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
        if not self.c:
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
        return f"VLaurent({self.c!r})"


def vlaurent_div_exact(num: VLaurent, den: VLaurent) -> VLaurent:
    """Exact division in the Laurent ring Q[v, v^-1]; raises ValueError if
    den does not divide num.  Used by :func:`poly_div_exact` for the
    quotient of leading v-coefficients."""
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return VLaurent.zero()
    # In an exact division the quotient support is confined to this window.
    lo = num.min_exp() - den.min_exp()
    hi = num.max_exp() - den.max_exp()
    rem = num
    quo: dict[int, Fraction] = {}
    dmax = den.max_exp()
    dlead = den.c[dmax]
    while rem:
        e = rem.max_exp() - dmax
        if e < lo or e > hi:
            raise ValueError("inexact division in Q[v, v^-1]")
        coef = rem.c[rem.max_exp()] / dlead
        quo[e] = coef
        rem = rem - VLaurent({e: coef}) * den
    return VLaurent(quo)


class SymLaurent(_Laurent):
    """Laurent polynomial in X_1..X_r over VLaurent coefficients."""

    __slots__ = ("r", "c")

    def __init__(self, r: int, coeffs: Mapping[tuple[int, ...], Any] | None = None):
        if r < 0:
            raise ValueError("variable count must be non-negative")
        self.r = r
        c: dict[tuple[int, ...], VLaurent] = {}
        if coeffs:
            for e, x in coeffs.items():
                e = tuple(int(k) for k in e)
                if len(e) != r:
                    raise ValueError("exponent tuple length differs from variable count")
                x = x if isinstance(x, VLaurent) else VLaurent.from_scalar(x)
                if x:
                    c[e] = x
        self.c = c

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(r: int) -> "SymLaurent":
        return SymLaurent(r)

    @staticmethod
    def one(r: int) -> "SymLaurent":
        return SymLaurent(r, {(0,) * r: 1})

    @staticmethod
    def constant(r: int, x: Any) -> "SymLaurent":
        x = x if isinstance(x, VLaurent) else VLaurent.from_scalar(x)
        return SymLaurent(r, {(0,) * r: x})

    @staticmethod
    def monomial(r: int, exps: Iterable[int], coeff: Any = 1) -> "SymLaurent":
        return SymLaurent(r, {tuple(exps): coeff})

    @staticmethod
    def variable(r: int, i: int) -> "SymLaurent":
        e = [0] * r
        e[i] = 1
        return SymLaurent(r, {tuple(e): 1})

    # -- ring operations ---------------------------------------------------

    def _coerced(self, other: Any) -> "SymLaurent | None":
        if isinstance(other, SymLaurent):
            if other.r != self.r:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction, VLaurent)):
            return SymLaurent.constant(self.r, other)
        return None

    def __add__(self, other: Any) -> "SymLaurent":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        c = dict(self.c)
        for e, x in o.c.items():
            s = c.get(e)
            s = x if s is None else s + x
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = SymLaurent(self.r)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "SymLaurent":
        out = SymLaurent(self.r)
        out.c = {e: -x for e, x in self.c.items()}
        return out

    def __mul__(self, other: Any) -> "SymLaurent":
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        c: dict[tuple[int, ...], VLaurent] = {}
        for e1, x1 in self.c.items():
            for e2, x2 in o.c.items():
                e = tuple(map(operator.add, e1, e2))
                p = x1 * x2
                s = c.get(e)
                s = p if s is None else s + p
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = SymLaurent(self.r)
        out.c = c
        return out

    __rmul__ = __mul__

    # -- variable manipulations ---------------------------------------------

    def swap_vars(self, i: int, j: int) -> "SymLaurent":
        c: dict[tuple[int, ...], VLaurent] = {}
        for e, x in self.c.items():
            f = list(e)
            f[i], f[j] = f[j], f[i]
            c[tuple(f)] = x
        out = SymLaurent(self.r)
        out.c = c
        return out

    def invert_vars(self, indices: Iterable[int]) -> "SymLaurent":
        """Substitute X_i -> X_i^-1 for each listed variable index."""
        idx = set(indices)
        c: dict[tuple[int, ...], VLaurent] = {}
        for e, x in self.c.items():
            f = tuple(-k if i in idx else k for i, k in enumerate(e))
            c[f] = x
        out = SymLaurent(self.r)
        out.c = c
        return out

    def invert_all_vars(self) -> "SymLaurent":
        return self.invert_vars(range(self.r))

    def substitute_last_zero(self) -> "SymLaurent":
        """Set X_r = 0 and drop that variable.  Rejects negative X_r
        exponents, where the substitution is undefined."""
        if self.r == 0:
            raise ValueError("no variable to specialize")
        out = SymLaurent(self.r - 1)
        c: dict[tuple[int, ...], VLaurent] = {}
        for e, x in self.c.items():
            if e[-1] < 0:
                raise ValueError("negative exponent in the last variable; X_r = 0 undefined")
            if e[-1] == 0:
                c[e[:-1]] = x
        out.c = c
        return out

    def total_degrees(self) -> set[int]:
        return {sum(e) for e in self.c}

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = self.total_degrees()
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == {degree}

    def min_var_exp(self) -> int:
        """Smallest exponent appearing on any variable (0 for constants)."""
        lo = 0
        for e in self.c:
            for k in e:
                if k < lo:
                    lo = k
        return lo

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Iterable[Scalar], v_value: Fraction) -> Fraction:
        """Exact evaluation: X_i -> point[i], v -> v_value.  A zero entry in
        the point is rejected whenever it meets a negative exponent."""
        pt = tuple(Fraction(x) for x in point)
        if len(pt) != self.r:
            raise ValueError("point length differs from variable count")
        total = Fraction(0)
        for e, x in self.c.items():
            factor = x.evaluate(v_value)
            for base, k in zip(pt, e):
                if k == 0:
                    continue
                if base == 0:
                    if k < 0:
                        raise ZeroDivisionError("zero point entry hits a negative exponent")
                    factor = Fraction(0)
                    break
                factor *= base**k
            total += factor
        return total

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(e), "coeff": x.to_json()}
            for e, x in sorted(self.c.items())
        ]

    @staticmethod
    def from_json(data: Iterable[Mapping], r: int) -> "SymLaurent":
        coeffs = {
            tuple(term["exponents"]): VLaurent.from_json(term["coeff"])
            for term in data
        }
        return SymLaurent(r, coeffs)

    def __str__(self) -> str:
        if not self.c:
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
        return f"SymLaurent({self.r}, {{{', '.join(f'{e}: {x}' for e, x in sorted(self.c.items()))}}})"


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
    """Exact division of multivariate Laurent polynomials.

    Reduces the lexicographically leading term at every step.  For an exact
    division the quotient's exponents are confined, coordinate by
    coordinate, to the window [min(num) - min(den), max(num) - max(den)]
    (minimum/maximum-weight components multiply without cancellation in a
    domain), so leaving the window proves inexactness and guarantees
    termination."""
    if num.r != den.r:
        raise ValueError("variable counts differ")
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num:
        return SymLaurent.zero(num.r)
    r = num.r

    def corner(c: dict, pick) -> tuple[int, ...]:
        return tuple(pick(e[i] for e in c) for i in range(r))

    lo = tuple(a - b for a, b in zip(corner(num.c, min), corner(den.c, min)))
    hi = tuple(a - b for a, b in zip(corner(num.c, max), corner(den.c, max)))
    dlead = max(den.c)
    dcoef = den.c[dlead]
    rem = num
    quo = SymLaurent.zero(r)
    while rem:
        nlead = max(rem.c)
        e = tuple(a - b for a, b in zip(nlead, dlead))
        if any(k < l or k > h for k, l, h in zip(e, lo, hi)):
            raise ValueError("inexact Laurent polynomial division")
        # Leading v-coefficients must divide exactly as well.
        coef = vlaurent_div_exact(rem.c[nlead], dcoef)
        t = SymLaurent.monomial(r, e, coef)
        quo = quo + t
        rem = rem - t * den
    return quo


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
            if not (x == 0):
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
            if not (acc == 0):
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
