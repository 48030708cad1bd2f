"""Weyl characters with exact coefficients.

* Schur polynomials for GL_r as Demazure characters, for weakly
  decreasing integer vectors (negative entries included), plus an
  independent semistandard-tableau oracle;
* symplectic characters for Sp_{2n} as Demazure characters, plus the Weyl
  dimension formula as an oracle;
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

A symbolic character is built by the Demazure character formula
chi_lam = pi_{w_0} X^lam (Demazure, Ann. Sci. ENS 7, 1974; Andersen,
Invent. Math. 79, 1985): one isobaric divided difference pi_i per letter
of a reduced word for the longest Weyl group element w_0, each sending a
monomial to a string of monomials along a simple root (``_demazure``).
No alternant, no division and no polynomial product is formed, and every
intermediate is a Demazure character, whose weights are weights of the
result.  Every numeric character is one rule, ``_jacobi_trudi``: a
Jacobi-Trudi determinant, Koike-Terada's in type C, of the integers
h_m(y) = B^m h_m(z) of an ``_HTable``, where B is the lcm of the point's
denominators and y = B z, over one power of B.  The
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
import math
import operator
from fractions import Fraction

from .coweights import Cone, Coweight, is_dominant
from .rings import _MASK, _W, SymLaurent, _checked, _pack


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


def _demazure(lam: Coweight, word: tuple[int, ...]) -> SymLaurent:
    """pi_{i_k} .. pi_{i_1} X^lam for word = (i_1, .., i_k), the first
    letter acting first, by isobaric divided differences
    pi_i f = (f - X^-alpha s_i f) / (1 - X^-alpha).  Letter i < r - 1 is
    the root alpha = e_i - e_{i+1} and letter r - 1 the long root 2 e_r of
    type C.  On a monomial c X^mu, with m = <mu, alpha^vee>, pi_i gives
    c X^mu + .. + c X^(mu - m alpha) for m >= 0, nothing for m = -1 and
    -c X^(mu + alpha) - .. - c X^(mu - (m + 1) alpha) for m <= -2, so no
    division is taken.  Keys move by int steps: alpha^vee pairs mu with
    the field of x_i less the field below it, that of x_{i+1} or, for the
    long root, that of v, which is 0 in every term.  A coefficient that
    cancels to 0 only adds zeros until the end, where it is dropped.
    Every term keeps within the convex hull of the Weyl orbit of lam, so
    its exponents within max|lam_i|, which the caller has checked."""
    r = len(lam)
    num = {_pack((*lam, 0)): 1}
    for i in word:
        s = _W * (r - i)
        step = (1 << s) - (1 << (s - _W)) if i < r - 1 else 2 << s
        out: dict[int, int] = {}
        get = out.get
        for k, c in num.items():
            m = ((k >> s) & _MASK) - ((k >> (s - _W)) & _MASK)
            if m == 0:
                out[k] = get(k, 0) + c
            elif m > 0:
                for key in range(k - m * step, k + 1, step):
                    out[key] = get(key, 0) + c
            elif m < -1:
                for key in range(k + step, k - m * step, step):
                    out[key] = get(key, 0) - c
        num = out
    bound = max(map(abs, lam), default=0)
    return SymLaurent._wrap(r, {k: c for k, c in num.items() if c}, 1, bound)


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
    """Schur polynomial s_lam(X_1..X_r) as the Demazure character
    pi_{w_0} X^lam, the letters of w_0 acting in the order
    (r-1)(r-2 r-1)(r-3 r-2 r-1)..(1 2 .. r-1) of A_{r-1}.  After each
    group the value is X_1^lam_1 .. X_k^lam_k times the Schur polynomial
    of the trailing parts in the trailing variables: the smallest parts
    of lam are spread first, which keeps every intermediate small.

    lam must be weakly decreasing of length r.  Negative entries need no
    special case: the formula holds for every dominant weight of GL_r.
    OverflowError unless 2 max|lam_i + r - 1 - i| (max|lam_1| at r = 1)
    is within the packed field limit: the domain of the bialternant
    a_{lam+delta} / a_delta, kept so that a weight whose character is
    far too large to build is refused before any term is formed."""
    lam = _gl_weight(lam, r)
    _checked(min(r, 2) * max((abs(x + r - 1 - i) for i, x in enumerate(lam)), default=0))
    return _demazure(lam, tuple(j for k in range(r - 2, -1, -1) for j in range(k, r - 1)))


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
    weight lam, as the Demazure character pi_{w_0} x^lam, w_0 = c^n for
    the Coxeter element c, the letters acting in the order (1 2 .. n)^n
    of C_n, n^2 in all.  OverflowError unless 3 (lam_1 + n) is within the
    packed field limit, the domain of the Weyl alternant ratio, as in
    :func:`schur`."""
    lam = _sp_weight(lam, n)
    _checked(3 * (lam[0] + n) if n else 0)
    return _demazure(lam, tuple(range(n)) * n)


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


@functools.cache
def orbit_sum(lam: Coweight, n: int) -> SymLaurent:
    """Sum of X^mu over the orbit of lam under the type D Weyl group
    (permutations composed with an even number of sign changes), built as
    the closure of lam under the simple reflections, the adjacent swaps and
    (x_(n-1), x_n) -> (-x_n, -x_(n-1)), in O(|orbit| n) steps.  Each orbit
    element contributes once; the result is symmetric and invariant under
    inverting pairs of variables."""
    lam = tuple(lam)
    if len(lam) != n:
        raise ValueError("weight length differs from rank")
    orbit, todo = {lam}, [lam]
    while todo:
        mu = todo.pop()
        images = [mu[:i] + (mu[i + 1], mu[i]) + mu[i + 2 :] for i in range(n - 1)]
        if n > 1:
            images.append(mu[:-2] + (-mu[-1], -mu[-2]))
        for nu in images:
            if nu not in orbit:
                orbit.add(nu)
                todo.append(nu)
    return SymLaurent(n, {mu: 1 for mu in orbit})
