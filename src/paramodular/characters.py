"""Weyl characters with exact coefficients.

* Schur polynomials for GL_r as bialternants a_{lam+delta} / a_delta, for
  weakly decreasing integer vectors (negative entries included), plus an
  independent semistandard-tableau oracle;
* symplectic characters for Sp_{2n} by the Weyl alternant ratio, with the
  exact division acting as a built-in self-check, plus the Weyl dimension
  formula as a second oracle;
* numeric characters at a rational point, Schur and symplectic alike, as
  Jacobi-Trudi determinants of integers read from one table of complete
  homogeneous sums per point (no polynomial is built);
* orbit sums under the type D Weyl group (permutations and even sign
  changes), the triangular stand-in used where exact Satake values are not
  tabulated.

The exact SO_4 values at the minuscule coweights are tabulated once, as
Satake images, in :func:`paramodular.oldforms.so4_satake_table`.  The
specialization X_r -> 0 that drops the last GL variable is
:meth:`paramodular.rings.SymLaurent.substitute_last_zero`.

A symbolic character is an alternant over a factored Weyl denominator: the
numerator alternant is written out as its signed monomials, one per
permutation and choice of signs, and divided by the denominator's two-term
factors X^a - X^b one at a time (``_alternant``, ``_weyl_ratio``); no
determinant and no polynomial product is formed; the alternant keeps
the Leibniz sign table (``_leibniz``).  Every numeric character is one
rule, ``_jacobi_trudi``: a Jacobi-Trudi determinant, Koike-Terada's in
type C, of the integers h_m(y) = B^m h_m(z) of an ``_HTable``, where B is
the lcm of the point's denominators and y = B z, over one power of B.  The
integer determinant (``_jacobi_trudi_det``, ``_det``) is written out for
k <= 3 rows and taken by fraction-free Bareiss elimination, O(k^3), for
more.  Its rows follow one row rule, ``_jacobi_trudi_row``: the row of
shift a = lam_i - i holds h_{a+j}(y), plus B^{2j} h_{a-j}(y) in type C,
so it depends on the shift alone.  Schur values read the table of the point
(:func:`_schur_value`, for :class:`paramodular.rankin.EvaluationMode`);
:func:`sp_character_value` reads the table of the 2n values
beta_j^{+-1}, and :func:`paramodular.whittaker.spherical_so_data` builds
each row of one such table once, by the same row rule, and takes one
``_det`` per weight of its prefixes.  The symbolic and numeric
symplectic characters are thus independent formulas.  Each character
checks its weight with one rule per group, ``_gl_weight`` or
``_sp_weight``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .coweights import Cone, Coweight, is_dominant
from .rings import SymLaurent, _div_binomial


@functools.cache
def _leibniz(k: int) -> tuple[tuple[bool, tuple[int, ...]], ...]:
    """The Leibniz sign table: every permutation of range(k), in
    lexicographic order, with whether it is odd.  A permutation starting
    with i puts i before the i smaller entries, so its parity is that of i
    plus that of the rest, a permutation of the table for k - 1 (relabelled
    monotonely, which keeps its inversions)."""
    if k == 0:
        return ((False, ()),)
    return tuple(
        (odd != (i % 2 == 1), (i, *(j + (j >= i) for j in rest)))
        for i in range(k)
        for odd, rest in _leibniz(k - 1)
    )


def _det(entries: list[list[int]]) -> int:
    """Determinant of a square integer matrix, which is left unchanged.  Up
    to 3 rows it is written out: 1 for the empty matrix, the entry at k = 1,
    ad - bc at k = 2 and the cofactor expansion along the first row at
    k = 3.  From 4 rows on it is fraction-free Gaussian elimination
    (Bareiss, Math. Comp. 22, 1968): after step i every entry below and
    right of the pivot is a minor of the matrix, so each division by the
    previous pivot is exact.  A zero pivot is replaced by a row below it
    with a nonzero entry in its column, flipping the sign; if there is none
    the determinant is 0."""
    k = len(entries)
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = entries
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if k == 2:
        (a, b), (c, d) = entries
        return a * d - b * c
    if k < 2:
        return entries[0][0] if k else 1
    m = [list(row) for row in entries]
    sign, prev = 1, 1
    for i in range(k - 1):
        pivot_row = m[i]
        if not pivot_row[i]:
            for s in range(i + 1, k):
                if m[s][i]:
                    m[i], m[s] = m[s], pivot_row
                    pivot_row = m[i]
                    sign = -sign
                    break
            else:
                return 0
        p = pivot_row[i]
        for row in m[i + 1 :]:
            x = row[i]
            for j in range(i + 1, k):
                row[j] = (p * row[j] - x * pivot_row[j]) // prev
        prev = p
    return sign * m[-1][-1]


def _alternant(mu: list[int], signs: tuple[int, ...]) -> SymLaurent:
    """det(sum_{s in signs} s X_j^(s mu_i)) written out as its signed
    monomials, one for each permutation and choice of signs: signs (1,)
    gives the type A alternant a_mu, signs (1, -1) the type C one.  For
    strictly decreasing mu (positive, in type C) no two monomials
    coincide."""
    r = len(mu)
    terms = {}
    for odd, perm in _leibniz(r):
        for eps in itertools.product(signs, repeat=r):
            e = [0] * r
            for m, j, s in zip(mu, perm, eps):
                e[j] = s * m
            terms[tuple(e)] = -math.prod(eps) if odd else math.prod(eps)
    return SymLaurent(r, terms)


def _unit(r: int, *signed: tuple[int, int]) -> tuple[int, ...]:
    """The exponent tuple sum of s e_i over the (i, s) pairs given."""
    e = [0] * r
    for i, s in signed:
        e[i] += s
    return tuple(e)


@functools.cache
def _gl_weyl_factors(r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """a_delta = det(X_j^(r-i)) = prod_{i<j} (X_i - X_j), as the (a, b)
    of its factors X^a - X^b."""
    return tuple(
        (_unit(r, (i, 1)), _unit(r, (j, 1))) for i in range(r) for j in range(i + 1, r)
    )


@functools.cache
def _sp_weyl_factors(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The type C Weyl denominator det(x_j^(n-i+1) - x_j^-(n-i+1)) =
    prod_i (x_i - x_i^-1) prod_{i<j} (x_i - x_j)(1 - x_i^-1 x_j^-1), as the
    (a, b) of its factors X^a - X^b.  The alternant is prod_i (x_i - x_i^-1)
    times the Vandermonde determinant in y = x + x^-1, and
    y_i - y_j = (x_i - x_j)(1 - x_i^-1 x_j^-1)."""
    return tuple((_unit(n, (i, 1)), _unit(n, (i, -1))) for i in range(n)) + tuple(
        pair
        for i in range(n)
        for j in range(i + 1, n)
        for pair in [
            (_unit(n, (i, 1)), _unit(n, (j, 1))),
            (_unit(n), _unit(n, (i, -1), (j, -1))),
        ]
    )


def _weyl_ratio(num: SymLaurent, factors, lam: Coweight) -> SymLaurent:
    """num divided by the product of the factors X^a - X^b, one at a time.
    num is a multiple of the product iff every step is exact; a remainder
    means a bug upstream."""
    try:
        for a, b in factors:
            num = _div_binomial(num, a, b)
    except ValueError as exc:  # pragma: no cover - internal consistency check
        raise ArithmeticError(f"Weyl alternant division failed for {lam}") from exc
    return num


def _gl_weight(lam: Coweight, r: int) -> Coweight:
    """The GL_r weight lam as a tuple, or ValueError: shared by
    :func:`schur` and :func:`_schur_value`, so that symbolic and numeric
    Schur values reject the same weights."""
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("weight length differs from variable count")
    if any(map(operator.lt, lam, lam[1:])):
        raise ValueError("weight is not weakly decreasing")
    return lam


@functools.cache
def schur(lam: Coweight, r: int) -> SymLaurent:
    """Schur polynomial s_lam(X_1..X_r) as the bialternant
    a_{lam+delta} / a_delta, delta = (r-1, ..., 1, 0).

    lam must be weakly decreasing of length r.  Negative entries need no
    special case: the ratio holds for Laurent exponents."""
    lam = _gl_weight(lam, r)
    num = _alternant([lam[i] + r - 1 - i for i in range(r)], (1,))
    return _weyl_ratio(num, _gl_weyl_factors(r), lam)


def schur_oracle(lam: Coweight, r: int) -> SymLaurent:
    """Independent Schur computation: exhaustive enumeration of semistandard
    tableaux (rows weakly increase, columns strictly increase, entries in
    1..r).  Requires a partition (non-negative entries)."""
    lam = tuple(lam)
    if len(lam) != r or not is_dominant(lam, Cone.GL) or (lam and lam[-1] < 0):
        raise ValueError("need a partition of length r")
    shape = [x for x in lam if x > 0]
    if not shape:
        return SymLaurent.one(r)
    rows: list[list[int]] = [[0] * c for c in shape]
    weights: dict[tuple[int, ...], int] = {}

    def fill(i: int, j: int) -> None:
        if i == len(shape):
            e = [0] * r
            for row in rows:
                for x in row:
                    e[x - 1] += 1
            key = tuple(e)
            weights[key] = weights.get(key, 0) + 1
            return
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0 and j < shape[i - 1]:
            lo = max(lo, rows[i - 1][j] + 1)
        nxt = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        for val in range(lo, r + 1):
            rows[i][j] = val
            fill(*nxt)
        rows[i][j] = 0

    fill(0, 0)
    return SymLaurent(r, weights)


@functools.cache
def sp_character(lam: Coweight, n: int) -> SymLaurent:
    """Character of the irreducible Sp_{2n} representation with highest
    weight lam, by the Weyl formula

        det(x_j^{l_i + n - i + 1} - x_j^{-(l_i + n - i + 1)})
        -----------------------------------------------------
        det(x_j^{n - i + 1}       - x_j^{-(n - i + 1)})

    The numerator is written out as its 2^n n! signed monomials and divided
    by the n^2 two-term factors of the denominator.  Every division must
    be exact; a remainder means a bug upstream."""
    lam = _sp_weight(lam, n)
    num = _alternant([lam[i] + n - i for i in range(n)], (1, -1))
    return _weyl_ratio(num, _sp_weyl_factors(n), lam)


def _sp_weight(lam: Coweight, n: int) -> Coweight:
    """The Sp_{2n} highest weight lam as a tuple, or ValueError: shared by
    :func:`sp_character` and :func:`sp_character_value`, so that both
    reject the same weights."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("weight length differs from rank")
    if not is_dominant(lam, Cone.G):
        raise ValueError("weight must be weakly decreasing and non-negative")
    return lam


class _HTable:
    """The complete homogeneous sums of one rational point z, as integers:
    with B the lcm of z's denominators and y = B z, ``upto(m)`` lists
    h_i(y) = B^i h_i(z) for i = 0 .. m at least, tabulated on demand.
    ``den`` is B."""

    __slots__ = ("den", "y", "_rows")

    def __init__(self, z):
        # _rows[k][m] = h_m(y_1..y_{k+1}), extended on demand
        self.den = math.lcm(*(x.denominator for x in z))
        self.y = [x.numerator * (self.den // x.denominator) for x in z]
        self._rows = [[1] for _ in self.y]

    def upto(self, m: int) -> list[int]:
        """The table's list of B^i h_i(z) = h_i(y_1..y_k), tabulated at least
        through i = m, by the recurrence h_i(y_1..y_k) = h_i(y_1..y_{k-1})
        + y_k h_{i-1}(y_1..y_k)."""
        rows = self._rows
        while len(rows[0]) <= m:
            below = 0  # h of no variables in positive degree
            for y, row in zip(self.y, rows):
                below += y * row[-1]
                row.append(below)
        return rows[-1]


def _jacobi_trudi_row(h: list[int], squared: int, a: int, k: int, sp: bool) -> list[int]:
    """Row a_i = a of the integer matrix of :func:`_jacobi_trudi`, its
    first k entries: h_{a+j}(y), plus B^{2j} h_{a-j}(y) for 0 < j <= a
    with sp, and 0 at a negative degree.  Entry j does not depend on k, so
    a row of k columns is the prefix of any wider row of the same shift.
    h is the table's list, tabulated at least through degree a + k - 1,
    and squared is B^2."""
    row = h[a : a + k] if a >= 0 else [h[m] if m >= 0 else 0 for m in range(a, a + k)]
    if sp and a > 0:
        scale = 1
        for j in range(1, a + 1 if a < k else k):
            scale *= squared
            row[j] += h[a - j] * scale
    return row


def _jacobi_trudi_det(h: list[int], squared: int, parts: Coweight, sp: bool) -> int:
    """B^|lam| times the Jacobi-Trudi determinant at the point z of a table,
    as one integer determinant, for the nonzero parts of a partition lam:
    the rule of :func:`_jacobi_trudi`, row i of shift parts[i] - i.  h is
    the table's list, tabulated at least through degree parts[0] +
    len(parts) - 1, and squared is B^2."""
    k = len(parts)
    return _det([_jacobi_trudi_row(h, squared, x - i, k, sp) for i, x in enumerate(parts)])


def _jacobi_trudi(table: _HTable, lam: Coweight, sp: bool) -> tuple[int, int]:
    """The Jacobi-Trudi determinant at the point z of table for a
    partition lam with l nonzero parts, a_i = lam_i - i and 0 <= i, j < l:
    s_lam(z) = det(h_{a_i+j}), and with sp the Sp_{2n} character of lam at
    z = (b_1, 1/b_1, .., b_n, 1/b_n), det(M) with M[i][0] = h_{a_i} and
    M[i][j] = h_{a_i+j} + h_{a_i-j} for j > 0.  That is Koike-Terada's
    1/2 det(h_{lam_i-i+j} + h_{lam_i-i-j+2}) (1-based; J. Algebra 107,
    1987) with its doubled first column halved.  Scaling row i by B^{a_i}
    and column j by B^j makes every entry the integer h_{a_i+j}(y)
    (+ B^{2j} h_{a_i-j}(y)) and scales the determinant by
    B^{sum_i a_i + sum_j j} = B^|lam|, so the value is one integer
    determinant (``_jacobi_trudi_det``) over B^|lam|, returned as that
    pair of integers.  l = 0 gives (1, 1)."""
    parts = [x for x in lam if x]
    h = table.upto(parts[0] + len(parts) - 1 if parts else 0)
    return _jacobi_trudi_det(h, table.den**2, parts, sp), table.den ** sum(parts)


def _schur_value(lam: Coweight, table: _HTable) -> Fraction:
    """s_lam at the point z of table: equals ``schur(lam, r).evaluate(z, v)``,
    including its ValueErrors and the ZeroDivisionError of a negative lam_r
    at a point with a zero entry.  s_lam = (z_1..z_r)^shift s_core, where
    shift is lam_r when negative (else 0) and core = lam - shift, and
    z_1..z_r = prod(y) / B^r; the value is built as one Fraction."""
    y = table.y
    lam = _gl_weight(lam, len(y))
    shift = min(lam[-1], 0)
    num, den = _jacobi_trudi(table, [x - shift for x in lam], False)
    if shift:
        num *= table.den ** (-shift * len(y))
        den *= math.prod(y) ** -shift
    return Fraction(num, den)


def _sp_table(beta: tuple[Fraction, ...]) -> _HTable:
    """The table of the 2n values beta_j^{+-1} of a Satake point with no
    zero entry; ValueError at a zero entry."""
    if any(b == 0 for b in beta):
        raise ValueError("degenerate Satake point: zero coordinate")
    return _HTable([z for b in beta for z in (b, 1 / b)])


def sp_character_value(lam: Coweight, beta: tuple[Fraction, ...]) -> Fraction:
    """Numeric symplectic character at an exact rational point with no
    zero entry: the Koike-Terada Jacobi-Trudi determinant of
    ``_jacobi_trudi``, over the complete homogeneous sums of the 2n values
    beta_j^{+-1}.  It needs no Weyl denominator, so every nonzero point is
    valid, beta_i = +-1 and beta_i = beta_j^{+-1} included, and a
    determinant has as many rows as lam has nonzero parts."""
    beta = tuple(Fraction(b) for b in beta)
    lam = _sp_weight(lam, len(beta))
    return Fraction(*_jacobi_trudi(_sp_table(beta), lam, True))


def sp_dimension(lam: Coweight, n: int) -> int:
    """Weyl dimension formula for Sp_{2n} (independent oracle for
    sp_character at the all-ones point)."""
    lam = tuple(lam)
    rho = [n - i for i in range(n)]  # (n, n-1, ..., 1)
    mu = [lam[i] + n - i for i in range(n)]  # lam + rho
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(mu[i] - mu[j], rho[i] - rho[j])
            dim *= Fraction(mu[i] + mu[j], rho[i] + rho[j])
    for i in range(n):
        dim *= Fraction(mu[i], rho[i])
    if dim.denominator != 1:
        raise ArithmeticError("Weyl dimension formula gave a non-integer")
    return int(dim)


def _even_flip_masks(n: int) -> list[tuple[int, ...]]:
    masks = []
    for bits in itertools.product((1, -1), repeat=n):
        if bits.count(-1) % 2 == 0:
            masks.append(bits)
    return masks


@functools.cache
def orbit_sum(lam: Coweight, n: int) -> SymLaurent:
    """Sum of X^mu over the orbit of lam under the type D Weyl group
    (permutations composed with an even number of sign changes).  Each orbit
    element contributes once; the result is symmetric and invariant under
    inverting pairs of variables."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("weight length differs from rank")
    orbit = set()
    for perm in itertools.permutations(lam):
        for mask in _even_flip_masks(n):
            orbit.add(tuple(p * s for p, s in zip(perm, mask)))
    return SymLaurent(n, {mu: 1 for mu in orbit})

