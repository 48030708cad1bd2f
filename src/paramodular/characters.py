"""Weyl characters with exact coefficients.

* Schur polynomials for GL_r as bialternants a_{lam+delta} / a_delta, for
  weakly decreasing integer vectors (negative entries included), plus an
  independent semistandard-tableau oracle;
* symplectic characters for Sp_{2n} by the Weyl alternant ratio, with the
  exact division acting as a built-in self-check, plus the Weyl dimension
  formula as a second oracle;
* numeric symplectic characters at a rational point, as a ratio of two
  integer alternants over a shared denominator (no polynomial is built),
  with the alternant rows and the Weyl denominator tabulated once per
  point;
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
determinant and no polynomial product is formed.  The Leibniz expansion
``_det`` is numeric only: the integer alternants of
:func:`sp_character_value` and the integer Jacobi-Trudi determinants of
:class:`paramodular.rankin.EvaluationMode`, whose matrices come from one
index rule, ``_jacobi_trudi``.  A numeric determinant is always one of
ints, over a denominator shared by the whole point.  Each character checks
its weight with one rule per group, ``_gl_weight`` or ``_sp_weight``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .coweights import Cone, Coweight, is_dominant
from .rings import SymLaurent, _div_binomial


@functools.cache
def _leibniz(k: int) -> tuple[tuple[bool, tuple[int, ...]], ...]:
    """The Leibniz sign table: every permutation of range(k) with whether
    it is odd (an odd number of inversions)."""
    return tuple(
        (sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k)) % 2 == 1, p)
        for p in itertools.permutations(range(k))
    )


def _det(entries: list[list[int]]) -> int:
    """Leibniz determinant of a square integer matrix.  Terms with a zero
    factor are skipped: Jacobi-Trudi matrices are mostly zeros below the
    diagonal band."""
    total = 0
    for odd, perm in _leibniz(len(entries)):
        factors = [row[j] for row, j in zip(entries, perm)]
        if not all(factors):
            continue
        prod = math.prod(factors)
        total = total - prod if odd else total + prod
    return total


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
    :func:`schur` and :func:`_jacobi_trudi`, so that symbolic and numeric
    Schur values reject the same weights."""
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("weight length differs from variable count")
    if not is_dominant(lam, Cone.GL):
        raise ValueError("weight is not weakly decreasing")
    return lam


def _jacobi_trudi(lam: Coweight, r: int) -> tuple[int, list[list[int]]]:
    """Split a GL_r weight for Jacobi-Trudi: s_lam = (X_1...X_r)^shift *
    det(h_{index[i][j]}), where shift is lam_r when negative (else 0) and
    index[i][j] = core_i - i + j for the partition core = lam - shift.

    Used by the numeric Schur values of
    :class:`paramodular.rankin.EvaluationMode`.  Like ``_det`` it is
    private, so its time counts toward the caller's span when the package
    is traced (``bench/tracer.py`` wraps public functions only)."""
    lam = _gl_weight(lam, r)
    shift = min(lam[-1], 0)
    return shift, [[lam[i] - shift - i + j for j in range(r)] for i in range(r)]


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


class _SpPoint:
    """The integer alternant rows of one Satake point beta, with beta_j =
    p_j / q_j in lowest terms: row(e, top) has the entries
    (p_j^(2e) - q_j^(2e)) (p_j q_j)^(top - e) for 0 < e <= top, built once
    each, ``weyl`` is the Weyl denominator's integer determinant at
    top = n and ``pq`` is prod_j p_j q_j.  Building the table rejects a
    degenerate point."""

    __slots__ = ("cols", "rows", "weyl", "pq")

    def __init__(self, beta: tuple[Fraction, ...]):
        if any(b == 0 for b in beta):
            raise ValueError("degenerate Satake point: zero coordinate")
        self.cols = [(b.numerator, b.denominator) for b in beta]
        self.rows: dict[tuple[int, int], list[int]] = {}
        n = len(beta)
        self.weyl = self.alternant([n - i for i in range(n)], n)
        if self.weyl == 0:
            raise ValueError("degenerate Satake point: Weyl denominator vanishes")
        self.pq = math.prod(p * q for p, q in self.cols)

    def row(self, e: int, top: int) -> list[int]:
        row = self.rows.get((e, top))
        if row is None:
            row = [(p ** (2 * e) - q ** (2 * e)) * (p * q) ** (top - e) for p, q in self.cols]
            self.rows[e, top] = row
        return row

    def alternant(self, exps: list[int], top: int) -> int:
        return _det([self.row(e, top) for e in exps])


@functools.lru_cache(maxsize=1)
def _sp_point(beta: tuple) -> _SpPoint:
    """The table of the last Satake point asked for: the weights of one
    point are evaluated together, so one entry suffices."""
    return _SpPoint(tuple(Fraction(b) for b in beta))


def sp_character_value(lam: Coweight, beta: tuple[Fraction, ...]) -> Fraction:
    """Numeric symplectic character: the alternant ratio evaluated at an
    exact rational point.  The point must avoid the Weyl denominator's zero
    locus (beta_i distinct from beta_j^{+-1} and from +-1, all nonzero).

    With beta_j = p_j / q_j in lowest terms, an alternant entry is
    beta_j^e - beta_j^{-e} = (p_j^{2e} - q_j^{2e}) / (p_j q_j)^e for e > 0
    (lam is dominant, so every exponent is).  Scaling column j by
    (p_j q_j)^E makes every entry with e <= E an integer, so an alternant
    is an integer determinant over the shared denominator
    prod_j (p_j q_j)^E.  The Weyl denominator needs E = n, the numerator
    E = lam_1 + n, so the character is
    num_det / (den_det * prod_j (p_j q_j)^lam_1).  The rows and den_det
    come from a table built once per point."""
    beta = tuple(beta)
    lam = _sp_weight(lam, len(beta))
    point = _sp_point(beta)
    n = len(lam)
    top = n + max(lam, default=0)
    num = point.alternant([lam[i] + n - i for i in range(n)], top)
    return Fraction(num, point.weyl * point.pq ** (top - n))


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

