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
characters.  Evaluation mode builds both local factors from the same
integers, as one integer convolution each (``_phi_times`` and
``denominator_factor``), and ``_phi_times`` takes the product of that
convolution with psi as one integer sum per degree, so no P_phi series is
formed.  The numerator factor P_phi is r copies of one polynomial E_beta,
whose coefficients are integers over one denominator den, and its
degree-k coefficient lies over den^r M^k, where x_j / v = c_j / M with
c_j and M integers.  The denominator factor P_wedge2 is the product over
i < j of 1 - q^2 y_i y_j (Y / pB)^2, with v = p / q, so its Y^2k
coefficient is entry k of the convolution of the two-term lists
[1, -q^2 y_i y_j], over (pB)^2k.

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

xi = P_phi psi / P_wedge2 is formed by products with psi.  P_phi is the
product of the r series E_beta(v^-1 X_j Y), and 1 / P_wedge2 that of the
r(r-1)/2 geometric series sum_k (v^-2 X_i X_j)^k Y^2k, each cut at
trunc.  Symbolic mode multiplies the packed psi by the factors of P_phi
(``_phi_times``) and the geometric series (``_over_p_wedge2``), each one
packed value (``_Packed.powers``), and splits the product into normalized
degrees once, at the end.
Evaluation mode sums its one convolution against psi_series, degree by
degree, then multiplies by the geometric series.  No P_phi is formed, no
series is inverted, and a symbolic product forms no term pair past the
horizon.  The unramified check takes the same products for P_phi psi.

Schur coordinates.  A symmetric f in X_1..X_r is fixed by its alternant
a_delta f, delta = (r-1, .., 1, 0), and the coefficient there of
X^(nu + delta), nu + delta strictly decreasing, is the coefficient of s_nu
in f (the bialternant identity; Macdonald, Symmetric Functions and Hall
Polynomials, I.3).  psi_l is a sum of Schur polynomials, so in these
coordinates it is the data relabelled: ``psi_alternant`` moves each weight's
terms to the key head + delta, with the v-shift of ``psi_component``, and
builds no Schur polynomial.  The raising identities psi(move d) = F psi(d),
for the symmetric move factors F of ``oldforms``, are checked there, F
multiplied in monomials by ``SymLaurent._alternant_mul``; a_delta is not a
zero divisor, so equal coordinates prove the series identity.  At r = 1,
delta = (0) and the coordinates are psi itself, which the zeta series
reads.  The series in monomials (``psi_series``) serve evaluation mode,
psi-modes and the witnesses of failing cases; in symbolic mode it is the
packed psi that xi, the unramified check and ``kernel_check`` read.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from fractions import Fraction
from typing import Any

from .characters import _HTable, _schur_value, schur
from .coweights import Coweight
from .rings import _MASK, _OFFSET, _W, SymLaurent, TruncSeries, VLaurent
from .rings import _checked, _Packed, _prefix_image
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

    def _phi_times(self, packed: _Packed, e: list[int], den: int, trunc: int) -> _Packed:
        """packed times prod_j E(v^-1 X_j Y), E(t) = sum_k (e_k / den) t^k,
        through Y-degree trunc: r products with packed factors
        (``_Packed.powers``), the Y^k term of factor j (e_k / den) v^-k
        X_j^k.  No P_phi and no series of degrees is formed."""
        sign = -1 if den < 0 else 1  # den is a product of signed p q
        coeffs = [sign * x for x in e[: trunc + 1]]
        for j in range(self.r):
            exps = tuple(-1 if i == self.r else int(i == j) for i in range(self.r + 1))
            packed = packed.times(_Packed.powers(self._zero, 1, exps, coeffs, sign * den), trunc)
        return packed

    def denominator_factor(self, trunc: int) -> TruncSeries:
        """prod_{i<j} (1 - v^-2 X_i X_j Y^2) through Y-degree trunc: the
        product of r(r-1)/2 two-term series."""
        r = self.r
        out = TruncSeries({0: self._one}, trunc, self._zero)
        for i in range(r):
            for j in range(i + 1, r):
                e = tuple(1 if k in (i, j) else 0 for k in range(r))
                quad = SymLaurent.monomial(r, e, VLaurent({-2: -1}))
                out = out * TruncSeries({0: self._one, 2: quad}, trunc, self._zero)
        return out


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
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

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

    def _phi_times(self, series: TruncSeries, e: list[int], den: int, trunc: int) -> TruncSeries:
        """series times prod_j E(x_j Y / v) at the point, E(t) = sum_k
        (e_k / den) t^k, through Y-degree trunc.  With x_j / v = c_j / M,
        c_j = y_j v_den and M = B v_num, the factor's degree-k coefficient
        is entry k of the integer convolution conv of the r lists [e_0 c_j^0,
        e_1 c_j^1, ...], over den^r M^k.  With the series' coefficients
        a_l / b_l over their lcm L, degree k of the product is the one
        integer sum over l of conv[k - l] M^l a_l (L / b_l), over
        den^r M^k L: no P_phi is formed, and nothing past the product's
        horizon, min(trunc, series.trunc), is."""
        t = trunc if series.trunc is None else min(trunc, series.trunc)
        total = [1]
        for y in self._table.y:
            c = y * self.v_value.denominator
            row = [x * c**k for k, x in enumerate(e[: t + 1])]
            conv = [0] * min(len(total) + len(row) - 1, t + 1)
            for a, x in enumerate(total):
                for b, z in enumerate(row[: len(conv) - a]):
                    conv[a + b] += x * z
            total = conv
        m = self._table.den * self.v_value.numerator
        psi = [(ell, x) for ell, x in series.coeffs.items() if ell <= t]
        lcm = math.lcm(*[x.denominator for _, x in psi])
        acc = [0] * (t + 1)
        for ell, x in psi:
            a = x.numerator * (lcm // x.denominator) * m**ell
            for j, c in enumerate(total[: t + 1 - ell]):
                acc[ell + j] += c * a
        coeffs, scale = {}, den**self.r * lcm
        for k, x in enumerate(acc):
            if x:
                coeffs[k] = Fraction(x, scale)
            scale *= m
        return TruncSeries(coeffs, t, self.zero())

    def denominator_factor(self, trunc: int) -> TruncSeries:
        """prod_{i<j} (1 - v^-2 x_i x_j Y^2) at the point through Y-degree
        trunc.  With x = y / B and v = p / q, factor (i, j) is
        1 - q^2 y_i y_j (Y / pB)^2, so the Y^2k coefficient is entry k of
        the integer convolution of the two-term lists [1, -q^2 y_i y_j],
        over (pB)^2k; entries past trunc are never formed."""
        y, q = self._table.y, self.v_value.denominator
        total = [1]
        for i in range(self.r):
            for j in range(i + 1, self.r):
                c = -q * q * y[i] * y[j]
                if len(total) <= trunc // 2:
                    total.append(0)
                for k in range(len(total) - 1, 0, -1):
                    total[k] += c * total[k - 1]
        m = (self.v_value.numerator * self._table.den) ** 2
        coeffs, scale = {}, 1
        for k, x in enumerate(total):
            if x:
                coeffs[2 * k] = Fraction(x, scale)
            scale *= m
        return TruncSeries(coeffs, trunc, self.zero())


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
    """A weight lam's (trace, head, w) in the rank-r torus sum, head and w
    from ``_torus_weight``, or None for a nonzero tail: one object per
    (n, r), so that ``rings._prefix_image`` caches its images per X-prefix."""
    return lambda lam: None if any(lam[r:]) else (sum(lam), *_torus_weight(lam, n, r))


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
        image = _prefix_image(rule, k >> _W, n, False)
        if image is not None and lower <= image[0] <= trunc:
            ell, head, w = image
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


@functools.cache
def _alternant_rule(n: int, r: int, trunc: int):
    """``psi_alternant``'s rule at (n, r, trunc): each weight lam of trace
    <= trunc with a zero tail goes to head + delta, delta = (r-1, .., 1, 0),
    with the v-shift w of ``_torus_weight``; any other weight to None.  One
    object per triple, and a pure function of lam, so that
    ``SymLaurent._relabel`` caches its images across values."""
    delta = range(r - 1, -1, -1)

    def rule(lam: Coweight) -> tuple[Coweight, int] | None:
        weight = _torus_weight(lam, n, r) if sum(lam) <= trunc else None
        if weight is None:
            return None
        head, w = weight
        return tuple(map(operator.add, head, delta)), w

    return rule


def psi_alternant(d: WhittakerData, n: int, r: int, trunc: int) -> SymLaurent:
    """a_delta times the sum of psi_l over l <= trunc, in r variables: the
    Schur coordinates of the torus sum (see module docstring).  Each weight
    lam of trace <= trunc with a zero tail gives the terms d(lam) v^w of
    the key head + delta, delta = (r-1, .., 1, 0), with head and w from the
    rule of ``psi_component``; no Schur polynomial is built.  The data's
    flat terms are read once, and each X-prefix is unpacked and relabelled
    once per process (``_alternant_rule``).  OverflowError if an exponent
    passes the packed field limit."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    if d.n != n:
        raise ValueError("rank mismatch between data and n")
    return d.gen._relabel(r, _alternant_rule(n, r, trunc))


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


def _times_p_phi(series: TruncSeries | _Packed, beta, n: int, mode: Mode, trunc: int) -> TruncSeries | _Packed:
    """The numerator local factor P_phi times series through Y-degree
    trunc: P_phi is the product over j <= r, i <= n, both signs, of
    (1 - beta_i^{+-1} v^{-1} X_j Y), that is prod_j E_beta(v^{-1} X_j Y)
    with E_beta from ``e_beta``, a polynomial of Y-degree 2nr with
    constant coefficient 1.  ValueError unless beta has n entries, all
    nonzero; the product is the mode's ``_phi_times`` (packed, symbolic)."""
    return mode._phi_times(series, *e_beta(_satake(beta, n)), trunc)


def p_wedge2(r: int, mode: Mode, trunc: int) -> TruncSeries:
    """Denominator local factor: prod over i < j of (1 - v^{-2} X_i X_j Y^2),
    a polynomial of Y-degree r(r-1), equal to 1 when r = 1, known through
    Y-degree trunc."""
    if mode.r != r:
        raise ValueError("mode variable count differs from r")
    return mode.denominator_factor(trunc)


def _over_p_wedge2(series: TruncSeries | _Packed, mode: Mode, trunc: int) -> TruncSeries | _Packed:
    """series / P_wedge2 through Y-degree trunc: one product per pair
    i < j, with the inverse sum_k u^k Y^2k of the factor 1 - u Y^2,
    u = v^-2 X_i X_j; no series is inverted.  A packed series stays packed."""
    r = mode.r
    for i in range(r):
        for j in range(i + 1, r):
            exps = tuple(1 if k in (i, j) else 0 for k in range(r))
            if isinstance(series, _Packed):
                geometric = _Packed.powers(series.zero, 2, exps + (-2,), [1] * (trunc // 2 + 1), 1)
                series = series.times(geometric, trunc)
                continue
            u = mode.lift(SymLaurent.monomial(r, exps, VLaurent({-2: 1})))
            coeffs, power = {}, mode.one()
            for k in range(0, trunc + 1, 2):
                coeffs[k], power = power, power * u
            series = series * TruncSeries(coeffs, trunc, mode.zero())
    return series


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
    it the factor is 1.  psi (packed in symbolic mode, ``_packed_psi``, and
    split into degrees once at the end) is multiplied by the factors of
    P_phi (``_times_p_phi``) and by the geometric series of 1 / P_wedge2
    (``_over_p_wedge2``): no P_phi is formed and nothing is inverted; see
    the module docstring.
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
    symbolic = isinstance(mode, SymbolicMode)
    series = _packed_psi(d, n, r, trunc, mode) if symbolic else psi_series(d, n, r, trunc, mode)
    if beta is not None:
        series = _times_p_phi(series, beta, n, mode, trunc)
    series = _over_p_wedge2(series, mode, trunc)
    series = series.series(trunc) if symbolic else series
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
