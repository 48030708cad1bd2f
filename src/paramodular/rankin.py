"""Torus-sum series, local factor polynomials, and the normalized series map.

For Whittaker data d on the rank-n odd orthogonal dominant cone and
1 <= r <= n, the degree-l series coefficient is the weighted torus sum

    psi_l(d) = sum over lam = (lam_1..lam_r, 0..0) dominant, trace = l, of
               d(lam) * v^{sum_i lam_i (r+1-2i)} * s_lam(X_1..X_r)
               * v^{l(2n-r-1)}

where the first v-power is the inverse square root of the GL_r Borel
modulus (the Iwasawa quotient measure contributes the full inverse modulus,
half of which cancels into the normalized Whittaker value) and the second
is the determinant-character twist.  With this normalization the spherical
data reproduces the classical identity

    sum_lam chi^{Sp_{2n}}_lam(beta) s_lam(x) =
        prod_{i<j} (1 - x_i x_j)^{-1} prod_{i,k} (1 - x_i beta_k)^{-1}
                                                  (1 - x_i beta_k^{-1})^{-1}

at x_i = v^{-1} X_i Y, i.e. the normalized series collapses to 1.

Everything runs in one of two modes: symbolic (coefficients are Laurent
polynomials in X_1..X_r over VLaurent) or evaluation (X_i and v bound to
exact rationals, coefficients are Fractions).  Both are exact.  A mode
maps a SymLaurent into its ring with ``lift``, which symbolic mode keeps
as it is and evaluation mode evaluates at its point.  Schur values in
evaluation mode never go through a polynomial and build no Fraction
before the last step: with the point x = y / B, y integer and B the lcm
of its denominators, the mode holds one ``characters._HTable`` of the
integers h_m(y) = B^m h_m(x), and each s_lam(point) is the integer
Jacobi-Trudi determinant of those numbers over B^|core|, times the twist
of a negative lam_r, by the rule that also gives the numeric symplectic
characters.

The torus sum reads each weight lam of the data once, from the data's
flat terms (e, x), d(lam) = sum x / den v^e over the one denominator of
the data's generating function, with no VLaurent built, and looks s_lam up
once per weight (``mode.schur``); v^w is the weight's v-power.  Symbolic
mode forms psi as one packed value, Y the top key field (``_packed_psi``,
``rings._Packed``): each numerator product x * y goes into one
accumulator at s_lam's key plus Y^l v^(e + w), and ``psi_component``
reads only the weights of its trace.  Evaluation mode walks the weights
of trace l through the data's trace index and sums x v^(e + w)
s_lam(point) as ints over one denominator (``_torus_sum``).

Local factors are lists of power factors (y, exps, coeffs, den), each
sum_k (coeffs[k] / den) m^k in a monomial m = v^-y X^a Y^y, |a| = y, exps
= (a, -y), cut at trunc: P_phi is r factors E_beta(v^-1 X_j Y), P_wedge2
r(r-1)/2 factors 1 - v^-2 X_i X_j Y^2, 1 / P_wedge2 their geometric series.
Each mode multiplies by a list in one pass, ``_times``: symbolic mode by
one packed product per factor, evaluation mode by one integer convolution
of the factors' rows, summed against psi once per degree.  xi is one pass
over psi with P_phi's and 1 / P_wedge2's factors and the unramified check
one with P_phi's (``_psi_times``), P_wedge2 the unit times its own.  No
series is inverted or multiplied, and no term past the horizon is formed.

Schur coordinates.  A symmetric f in X_1..X_r is fixed by its alternant
a_delta f, delta = (r-1, .., 1, 0), and the coefficient there of
X^(nu + delta), nu + delta strictly decreasing, is the coefficient of s_nu
in f (the bialternant identity; Macdonald, Symmetric Functions and Hall
Polynomials, I.3).  psi_l is a sum of Schur polynomials, so in these
coordinates it is the data relabelled: ``psi_alternant`` moves each weight's
terms to the key head + delta with the v-shift w, by the one weight rule
the packed psi also reads (``_psi_rule``), and builds no Schur polynomial.
The raising identities psi(move d) = F psi(d), for the symmetric move
factors F of ``oldforms``, are checked there (``_times_coordinates``).  F
has X-exponents 0 and 1 only, so each kappa + alpha of F a_kappa = sum
F_alpha a_(kappa + alpha) is weakly decreasing (Pieri's rule; Macdonald,
I.5 (5.17)), and the product kept at its strictly decreasing keys is
exact; a_delta is not a zero divisor, so equal coordinates prove the series
identity.  At r = 1, delta = (0) and the coordinates are psi itself, which
the zeta series reads.  The series in monomials (``psi_series``) serve
evaluation mode, psi-modes and the witnesses of failing cases; in symbolic
mode the packed psi serves xi, the unramified check and ``kernel_check``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Any

from .characters import _HTable, _schur_value, schur
from .coweights import Coweight
from .rings import _LIMIT, _MASK, _OFFSET, _W, SymLaurent, TruncSeries, VLaurent
from .rings import _bias, _checked, _pack, _Packed, _prefix_image
from .whittaker import WhittakerData, _satake, gl_modulus_exponent


class SymbolicMode:
    """Coefficients are SymLaurent in r variables."""

    def __init__(self, r: int):
        self.r = r
        # values are immutable, so one of each serves every caller
        self._zero, self._one = SymLaurent.zero(r), SymLaurent.one(r)

    def zero(self) -> SymLaurent:
        return self._zero

    def one(self) -> SymLaurent:
        return self._one

    def lift(self, poly: SymLaurent) -> SymLaurent:
        return poly

    def schur(self, lam: Coweight) -> SymLaurent:
        return schur(lam, self.r)

    def _times(self, packed: _Packed, factors: list, trunc: int) -> _Packed:
        """packed times the power factors through Y-degree trunc: one packed
        product per factor (``_Packed.powers``), no series of degrees."""
        for y, exps, coeffs, den in factors:
            packed = packed.times(_Packed.powers(self._zero, y, exps, coeffs, den), trunc)
        return packed


# Fractions are immutable, so one of each serves every point
_ZERO, _ONE = Fraction(0), Fraction(1)


class EvaluationMode:
    """X_i and v bound to exact rationals; coefficients are Fractions."""

    def __init__(self, r: int, point, v_value):
        self.r = r
        self.point = tuple(Fraction(x) for x in point)
        if len(self.point) != r:
            raise ValueError("point length differs from variable count")
        self.v_value = Fraction(v_value)
        if self.v_value == 0:
            raise ValueError("v must be nonzero")
        self._table = _HTable(self.point)

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE

    def lift(self, poly: SymLaurent) -> Fraction:
        return poly.evaluate(self.point, self.v_value)

    def schur(self, lam: Coweight) -> Fraction:
        """s_lam at the point: equals ``lift(schur(lam, r))``, including its
        ValueErrors and the ZeroDivisionError of a negative lam_r at a
        point with a zero entry; the Jacobi-Trudi rule of ``characters``
        over the mode's table."""
        return _schur_value(lam, self._table)

    def _torus_sum(self, weights: list, den: int) -> Fraction:
        """The sum over weights (s, w, terms) of s * sum (x / den) v^(e + w)
        over the terms (e, x), as one sum of ints: with v = p / q and every
        t = e + w in lo..hi (lo <= 0 <= hi), v^t is p^(t - lo) q^(hi - t)
        over p^-lo q^hi, and s is s.numerator * (L / s.denominator) over the
        lcm L of the Schur denominators.  No key is formed, so no exponent
        bound applies."""
        lo = min(0, *[terms[0][0] + w for _, w, terms in weights])
        hi = max(0, *[terms[-1][0] + w for _, w, terms in weights])
        p, q = self.v_value.numerator, self.v_value.denominator
        lcm = math.lcm(*[s.denominator for s, _, _ in weights])
        total = 0
        for s, w, terms in weights:
            part = 0
            for e, x in terms:
                t = e + w
                part += x * p ** (t - lo) * q ** (hi - t)
            total += part * s.numerator * (lcm // s.denominator)
        return Fraction(total, den * lcm * p**-lo * q**hi)

    def _convolution(self, factors: list, t: int) -> tuple[list[int], int]:
        """The factors' product through Y-degree t at the point, entry k over
        den M^k, den the dens' product: with x = y / B and v = p / q, the
        monomial v^-y X^a Y^y is c Y^y / M^y, c = q^y prod y_i^a_i, M = pB."""
        ys, q = self._table.y, self.v_value.denominator
        total, den = [1], 1
        for y, exps, coeffs, d in factors:
            c = q**y * math.prod(map(pow, ys, exps))
            size = min(len(total) + y * (len(coeffs) - 1), t + 1)
            conv = [0] * size
            for a, x in enumerate(total):
                if x:  # x c^k coeffs[k] goes to degree a + yk
                    for z in coeffs:
                        if a >= size:
                            break
                        conv[a] += x * z
                        x *= c
                        a += y
            total, den = conv, den * d
        return total, den

    def _series(self, nums: list[int], den: int, t: int) -> TruncSeries:
        """The series through t whose Y^k coefficient is nums[k] / (den M^k)."""
        m, coeffs = self._table.den * self.v_value.numerator, {}
        for k, x in enumerate(nums):
            if x:
                coeffs[k] = Fraction(x, den)
            den *= m
        return TruncSeries(coeffs, t, self.zero())

    def _times(self, series: TruncSeries, factors: list, trunc: int) -> TruncSeries:
        """series times the factors through min(trunc, series.trunc): with
        a_l / b_l over their lcm L, degree k is the integer sum over l of
        conv[k - l] M^l a_l (L / b_l), over L and conv's den times M^k."""
        t = trunc if series.trunc is None else min(trunc, series.trunc)
        total, den = self._convolution(factors, t)
        m = self._table.den * self.v_value.numerator
        psi = [(ell, x) for ell, x in series.coeffs.items() if ell <= t]
        lcm = math.lcm(*[x.denominator for _, x in psi])
        acc = [0] * (t + 1)
        for ell, x in psi:
            a = x.numerator * (lcm // x.denominator) * m**ell
            for j, c in enumerate(total[: t + 1 - ell]):
                acc[ell + j] += c * a
        return self._series(acc, den * lcm, t)


Mode = SymbolicMode | EvaluationMode


def _check_ranks(d: WhittakerData, n: int, r: int, mode: Mode) -> None:
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    if d.n != n or mode.r != r:
        raise ValueError("rank mismatch between data, n and mode")


@functools.cache
def _torus_weight(lam: Coweight, n: int, r: int) -> tuple[Coweight, int] | None:
    """How a weight of the data enters the rank-r torus sum: None for a
    nonzero tail lam_(r+1).., else its head lam_1..lam_r and the v-power w
    of its term, the GL_r modulus exponent plus the twist trace * (2n-r-1).
    Worked out once per (lam, n, r) per process."""
    if any(lam[r:]):
        return None
    head = lam[:r]
    return head, gl_modulus_exponent(head, r) + sum(lam) * (2 * n - r - 1)


def psi_component(d: WhittakerData, n: int, r: int, ell: int, mode: Mode) -> Any:
    """The degree-ell coefficient of the torus-sum series (see module
    docstring).  Homogeneous of total degree ell in the X variables; only
    weights of trace ell are read, in symbolic mode by ``_packed_psi``."""
    if isinstance(mode, SymbolicMode):
        return _packed_psi(d, n, r, ell, mode, ell).series(ell).get(ell)
    _check_ranks(d, n, r, mode)
    weights = []
    for lam, terms in d._trace_index().get(ell, ()):
        weight = _torus_weight(lam, n, r)
        if weight is not None:
            head, w = weight
            weights.append((mode.schur(head), w, terms))
    if not weights:
        return mode.zero()
    return mode._torus_sum(weights, d.gen.den)


@functools.cache
def _psi_rule(n: int, r: int):
    """How a weight lam enters psi at rank r, for the packed psi and
    ``psi_alternant``: None for a nonzero tail, else (trace, head, w, key,
    top), head and w from ``_torus_weight``, key that of head + delta,
    delta = (r-1, .., 1, 0), with its v-field left 0, and top its largest
    |entry|.  One object per (n, r), so that ``rings._prefix_image`` caches
    its images per X-prefix."""
    delta = range(r - 1, -1, -1)

    def rule(lam: Coweight):
        weight = _torus_weight(lam, n, r)
        if weight is None:
            return None
        head, w = weight
        shifted = tuple(map(operator.add, head, delta))
        return sum(lam), head, w, _pack(shifted) << _W, max(map(abs, shifted))

    return rule


def _packed_psi(d: WhittakerData, n: int, r: int, trunc: int, mode: SymbolicMode, lower: int = 0) -> _Packed:
    """psi in degrees lower..trunc as one packed value (``rings._Packed``):
    each term x / den v^e of the data at a weight of trace l in that range
    with a zero tail adds x s_head Y^l v^(e + w) into one accumulator over
    den times the lcm of the Schur denominators, read from the data's flat
    terms by X-prefix (``_psi_rule``), and s_head is looked up once per
    weight read (``mode.schur``).  The bound of s_head plus |e + w| is
    checked per term: OverflowError if it passes the field limit."""
    _check_ranks(d, n, r, mode)
    rule, shift = _psi_rule(n, r), _W * (r + 1)
    schurs: dict[Coweight, SymLaurent] = {}
    terms, bound = [], 0
    for k, x in d.gen.num.items():
        image = _prefix_image(rule, k >> _W, n)
        if image is not None and lower <= image[0] <= trunc:
            ell, head, w, _, _ = image
            if head not in schurs:
                schurs[head] = mode.schur(head)
            s, t = schurs[head], (k & _MASK) - _OFFSET + w
            bound = max(bound, _checked(s._bound + abs(t), s))
            terms.append((s, (ell << shift) + t, x))
    lcm = math.lcm(*[s.den for s, _, _ in terms])
    acc: dict[int, int] = {}
    get = acc.get
    for s, t, x in terms:
        x *= lcm // s.den
        for k, y in s.num.items():
            k += t
            acc[k] = get(k, 0) + x * y
    return _Packed(mode.zero(), [(k, x) for k, x in acc.items() if x], d.gen.den * lcm, bound)


def psi_series(d: WhittakerData, n: int, r: int, trunc: int, mode: Mode) -> TruncSeries:
    """The torus-sum series through degree trunc: the packed psi split into
    degrees (symbolic mode), or psi_component at each degree where d has a
    weight, the others zero without a call (evaluation mode)."""
    if isinstance(mode, SymbolicMode):
        return _packed_psi(d, n, r, trunc, mode).series(trunc)
    _check_ranks(d, n, r, mode)
    index = d._trace_index()
    coeffs = {
        ell: psi_component(d, n, r, ell, mode)
        for ell in range(trunc + 1)
        if ell in index
    }
    return TruncSeries(coeffs, trunc, mode.zero())


def psi_alternant(d: WhittakerData, n: int, r: int, trunc: int) -> SymLaurent:
    """a_delta times the sum of psi_l over l <= trunc, in r variables: the
    Schur coordinates of the torus sum (see module docstring).  Each weight
    lam of trace <= trunc with a zero tail gives the terms d(lam) v^w of
    the key head + delta, delta = (r-1, .., 1, 0), by the packed psi's rule
    (``_psi_rule``, once per X-prefix per process); no two weights meet and
    no Schur polynomial is built.  The bound is the largest |head_i +
    delta_i|, or the data's bound plus the largest |w|; past the field
    limit the v-exponents are re-read before OverflowError."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    if d.n != n:
        raise ValueError("rank mismatch between data and n")
    rule, num = _psi_rule(n, r), {}
    xbound = wbound = 0
    for k, x in d.gen.num.items():
        image = _prefix_image(rule, k >> _W, n)
        if image is not None and image[0] <= trunc:
            _, _, w, key, top = image
            num[key + (k & _MASK) + w] = x
            if top > xbound:
                xbound = top
            if w > wbound or -w > wbound:
                wbound = abs(w)
    bound = max(xbound, d.gen._bound + wbound)
    if bound > _LIMIT:  # re-read the v-exponents
        bound = xbound
        for k in d.gen.num:
            image = _prefix_image(rule, k >> _W, n)
            if image is not None and image[0] <= trunc:
                bound = max(bound, abs((k & _MASK) - _OFFSET + image[2]))
    return SymLaurent._normal(r, num, d.gen.den, _checked(bound))


@functools.cache
def _coordinate_rule(r: int, top: int):
    """Strictly decreasing kappa = nu + delta with |nu| <= top: the keys of
    Schur coordinates through top, one rule object per (r, top)."""
    most = r * (r - 1) // 2 + top
    return lambda kappa: sum(kappa) <= most and all(map(operator.gt, kappa, kappa[1:]))


def _times_coordinates(psi: SymLaurent, factor: SymLaurent, top: int) -> SymLaurent:
    """The Schur coordinates of F * f through top, psi those of f: exact for
    a symmetric F = factor with X-exponents 0 and 1 (see module docstring),
    and ValueError for any other factor or a mismatched r."""
    r = psi.r
    if factor.r != r or not factor._symmetric():
        raise ValueError("the factor is not symmetric in the variables of psi")
    # an X-prefix less xbias has fields 0 and 1 only iff or-ing ones keeps ones
    xbias = _bias(r) >> _W
    ones = xbias >> (_W - 1)
    for k in factor.num:
        if (k >> _W) - xbias | ones != ones:
            raise ValueError("the factor has an X-exponent other than 0 and 1")
    return psi._times_where(factor, _coordinate_rule(r, top))


def _psi_times(d: WhittakerData, n: int, r: int, factors: list, trunc: int, mode: Mode) -> TruncSeries:
    """psi through trunc times the power factors in one pass of the mode
    (``_times``): in symbolic mode the packed psi, its product split into
    degrees once, in evaluation mode ``psi_series``."""
    if isinstance(mode, SymbolicMode):
        return mode._times(_packed_psi(d, n, r, trunc, mode), factors, trunc).series(trunc)
    return mode._times(psi_series(d, n, r, trunc, mode), factors, trunc)


def e_beta(beta: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """E_beta(t) = det(1 - t s_pi) = prod_i (1 - beta_i t)(1 - beta_i^-1 t)
    as its 2n+1 integer coefficient numerators over one denominator.  With
    beta_i = p/q each pair of factors is (q - p t)(p - q t) / (p q), that is
    (pq - (p^2 + q^2) t + pq t^2) / (pq).  The list is palindromic and its
    constant term equals the denominator."""
    e, den = [1], 1
    for b in beta:
        p, q = b.numerator, b.denominator
        pq, mid = p * q, -(p * p + q * q)
        out = [0] * (len(e) + 2)
        for k, x in enumerate(e):
            out[k] += x * pq
            out[k + 1] += x * mid
            out[k + 2] += x * pq
        e, den = out, den * pq
    return e, den


@functools.cache
def _monomials(r: int, y: int) -> tuple[tuple[int, ...], ...]:
    """exps = (a, -y) of v^-y X^a Y^y, a each y-subset of X_1..X_r in
    lexicographic order: X_j for P_phi, X_i X_j (i < j) for P_wedge2."""
    subsets = itertools.combinations(range(r), y)
    return tuple(tuple(int(i in s) for i in range(r)) + (-y,) for s in subsets)


def _phi_factors(beta, n: int, r: int, trunc: int) -> list:
    """The numerator local factor P_phi, the product over j <= r, i <= n,
    both signs, of (1 - beta_i^{+-1} v^{-1} X_j Y), as the r power factors
    E_beta(v^{-1} X_j Y) (see the module docstring), E_beta from ``e_beta``
    over a positive den.  ValueError unless beta has n entries, all nonzero."""
    e, den = e_beta(_satake(beta, n))
    sign = -1 if den < 0 else 1  # den is a product of signed p q
    coeffs = [sign * x for x in e[: trunc + 1]]
    return [(1, exps, coeffs, sign * den) for exps in _monomials(r, 1)]


def _wedge_factors(r: int, coeffs: list[int]) -> list:
    """The power factors sum_k coeffs[k] (v^-2 X_i X_j Y^2)^k, i < j: those of
    P_wedge2 for [1, -1], of 1 / P_wedge2 through Y-degree 2K for K + 1 ones."""
    return [(2, exps, coeffs, 1) for exps in _monomials(r, 2)]


def p_wedge2(r: int, mode: Mode, trunc: int) -> TruncSeries:
    """Denominator local factor: prod over i < j of (1 - v^{-2} X_i X_j Y^2),
    a polynomial of Y-degree r(r-1), equal to 1 when r = 1, known through
    Y-degree trunc: the unit series times its factors (``_wedge_factors``)."""
    if mode.r != r:
        raise ValueError("mode variable count differs from r")
    factors = _wedge_factors(r, [1, -1])
    if isinstance(mode, SymbolicMode):
        return mode._times(_Packed.of({0: mode.one()}, mode.zero()), factors, trunc).series(trunc)
    return mode._series(*mode._convolution(factors, trunc), trunc)


@dataclasses.dataclass
class EpsilonData:
    """Conductor exponent and root-number sign of the local functional
    equation; the unramified case is (0, +1)."""

    conductor: int = 0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.conductor < 0:
            raise ValueError("conductor exponent must be non-negative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclasses.dataclass
class XiResult:
    """Outcome of the normalized series computation.

    ``poly`` is the value at Y = 1 (meaningful when ``stabilized``);
    ``stabilized`` records that the ``window`` coefficients of degrees
    trunc - window + 1 through trunc, the truncation order included, all
    vanish.
    """

    n: int
    r: int
    m: int
    poly: Any
    stabilized: bool
    series: TruncSeries = dataclasses.field(repr=False)

    @property
    def detected_degree(self) -> int:
        """The top Y-degree with a nonzero coefficient (-1 for the zero
        series)."""
        return max(self.series.coeffs, default=-1)

    def to_json(self) -> dict:
        if isinstance(self.poly, SymLaurent):
            poly = self.poly.to_json()
        else:
            poly = f"{self.poly.numerator}/{self.poly.denominator}"
        return {
            "n": self.n,
            "r": self.r,
            "m": self.m,
            "poly": poly,
            "detected_degree": self.detected_degree,
            "stabilized": self.stabilized,
        }


def default_trunc(d: WhittakerData, n: int, r: int, window: int) -> int:
    return d.max_trace() + 2 * n * r + r * (r - 1) + window


def xi(
    d: WhittakerData,
    n: int,
    r: int,
    *,
    beta=None,
    mode: Mode | None = None,
    trunc: int | None = None,
    window: int = 4,
    level: int = 0,
) -> XiResult:
    """Normalized series: (numerator factor) * (torus sum) / (denominator
    factor), truncated at ``trunc``.

    The numerator factor comes from ``beta`` (unramified parameters); without
    it the factor is 1.  psi is multiplied by the factors of P_phi and the
    geometric series of 1 / P_wedge2 in one pass of the mode
    (``_psi_times``): no P_phi is formed and nothing is inverted; see the
    module docstring.
    If the coefficients of degrees trunc - window + 1 through trunc do not
    all vanish the result is flagged as not stabilized rather than raising.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    mode = SymbolicMode(r) if mode is None else mode
    if window < 2:
        raise ValueError("window must be at least 2")
    if level < 0:
        raise ValueError("level must be non-negative")
    trunc = default_trunc(d, n, r, window) if trunc is None else trunc
    if trunc < window:
        raise ValueError("truncation order must be at least the window")
    factors = [] if beta is None else _phi_factors(beta, n, r, trunc)
    factors += _wedge_factors(r, [1] * (trunc // 2 + 1))
    series = _psi_times(d, n, r, factors, trunc, mode)
    stabilized = all(series.get(k) == 0 for k in range(trunc - window + 1, trunc + 1))
    poly = sum(series.coeffs.values(), mode.zero())
    return XiResult(n, r, level, poly, stabilized, series)


def specialize_last(result: XiResult) -> XiResult:
    """Substitute X_r = 0 throughout (symbolic mode only), dropping to r-1
    variables.  On stabilized results this realizes the tower-compatibility
    of the normalized series."""
    if not isinstance(result.poly, SymLaurent):
        raise ValueError("specialization requires a symbolic result")
    r = result.r
    if r < 1:
        raise ValueError("no variable to specialize")
    # X_r = 0 maps zero coefficients to zero, so a window that vanished
    # before still vanishes and the stabilization flag carries over
    coeffs = {k: c.substitute_last_zero() for k, c in result.series.coeffs.items()}
    series = TruncSeries(coeffs, result.series.trunc, SymLaurent.zero(r - 1))
    return XiResult(
        result.n,
        r - 1,
        result.m,
        result.poly.substitute_last_zero(),
        result.stabilized,
        series,
    )


def fe_check(xi_v: XiResult, xi_uv: XiResult, eps: EpsilonData) -> bool:
    """Functional equation at Y = 1: the Atkin-Lehner image's value with all
    X inverted must equal sign^r (X_1..X_r)^{a-m} times the original, at
    the level m both results carry."""
    if not isinstance(xi_v.poly, SymLaurent) or not isinstance(xi_uv.poly, SymLaurent):
        raise ValueError("functional equation check requires symbolic results")
    if (xi_v.n, xi_v.r) != (xi_uv.n, xi_uv.r):
        raise ValueError("results belong to different groups")
    if xi_v.m != xi_uv.m:
        raise ValueError("results belong to different levels")
    r, m = xi_v.r, xi_v.m
    lhs = xi_uv.poly.invert_all_vars()
    factor = SymLaurent.monomial(r, ((eps.conductor - m),) * r, eps.sign**r)
    return lhs == factor * xi_v.poly


def zeta_series(d: WhittakerData, n: int, trunc: int) -> TruncSeries:
    """The r = 1 series with X_1 evaluated at 1: coefficient of Y^l is
    d((l, 0, ..)) * v^{l(2n-2)}.  Coefficients are VLaurent: the Schur
    coordinates at r = 1 (delta = (0), s_(l) = X_1^l, the GL_1 modulus is
    trivial) read at each X-exponent l."""
    psi = psi_alternant(d, n, 1, trunc)
    coeffs = {
        ell: VLaurent({e: Fraction(x, psi.den) for e, x in terms})
        for (ell,), terms in psi._grouped()
    }
    return TruncSeries(coeffs, trunc, VLaurent.zero())


def kernel_check(d: WhittakerData, n: int, r: int) -> bool:
    """Verify that the normalized series of d vanishes iff d vanishes on the
    rank-r torus slice (support elements with zero tail).  The numerator and
    denominator factors are unit series, so vanishing of the normalized
    series is equivalent to vanishing of the bare torus sum, which is what
    gets tested: the packed psi through the largest trace has no term."""
    slice_zero = all(any(lam[r:]) for lam in d.support)
    series_zero = not _packed_psi(d, n, r, d.max_trace(), SymbolicMode(r)).terms
    return slice_zero == series_zero
