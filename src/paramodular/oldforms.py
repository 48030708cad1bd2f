"""Images of oldform families under the normalized series map at r = n.

Every oldform at paramodular level m above conductor a is a composition of
three kinds of moves applied to the new vector, and each move multiplies
the r = n series value by a fixed Laurent polynomial:

  * a depth shift (level +2):        q^{n(n-1)/2} X_1 ... X_n
  * a rank-raising step (level +1):  q (X_1 + X_2)   or   q (1 + X_1 X_2)
                                     (two inequivalent steps; n = 2)
  * a Hecke translation (level +0):  its Satake image

The move factors are stated once, by :func:`depth_shift_factor`,
:func:`theta_factor` and :func:`theta_prime_factor`; the verification
harness derives its series multipliers and expected images from them, and
every image below is a word in them (:func:`_word`) times a Hecke part.

For n = 2 the Satake images of the translations indexed by the three
minuscule coweights of SO_4 are known exactly:

    (1, 0)  ->  q (X_1 + X_2 + X_1^{-1} + X_2^{-1})
    (1, 1)  ->  q (X_1 X_2 + 1 + X_1^{-1} X_2^{-1})
    (1,-1)  ->  q (X_1 X_2^{-1} + 1 + X_1^{-1} X_2)

For other coweights the Satake image is not available in closed form; a
Weyl-orbit sum scaled by q^{<rho, lam>} is substituted and the result is
flagged ``stand_in``.  Satake transforms are triangular with respect to
the dominance order, so rank computations are insensitive to the
substitution, but individual polynomial values are not exact.

Ranks over Q(v) are exact and certified by specialization: the images are
evaluated at v = 2, 3, 4, ... and eliminated over Q.  One point of full
rank proves independence; a deficient rank is proved by more points than
the degree bound of the next-larger minors (see :func:`rank_check`).

Three families are generated at gap = m - a:

  * the orbit-paired family: depth shifts of Hecke translates (even gap),
    or of tilde-orbit-paired translates composed with a raising step
    (odd gap);
  * the unpaired family (odd gap): same but without orbit pairing --
    this family satisfies a linear dependence at gap 3;
  * the raising-monomial family: all words in the two raising steps and
    the depth shift.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .coweights import Cone, Coweight, enumerate_cone, is_dominant, sup_norm, tilde
from .characters import orbit_sum
from .rings import SymLaurent, VLaurent
# A re-export only: bench/tests/test_tracer.py checks that the tracer
# rebinds a function imported into a second module through this name.
from .rings import vlaurent_div_exact  # noqa: F401

_Q = VLaurent.q_power(1)


def theta_factor() -> SymLaurent:
    """Factor of the first-kind raising step: q (X_1 + X_2)."""
    return SymLaurent(2, {(1, 0): _Q, (0, 1): _Q})


def theta_prime_factor() -> SymLaurent:
    """Factor of the second-kind raising step: q (1 + X_1 X_2)."""
    return SymLaurent(2, {(0, 0): _Q, (1, 1): _Q})


def depth_shift_factor(n: int) -> SymLaurent:
    """Factor of the depth shift: q^{n(n-1)/2} X_1 ... X_n."""
    return SymLaurent(n, {(1,) * n: VLaurent.q_power(n * (n - 1) // 2)})


def so4_satake_table() -> dict[Coweight, SymLaurent]:
    """Exact Satake images of the SO_4 Hecke translations for the zero and
    minuscule coweights, in two variables."""
    return {
        (0, 0): SymLaurent.one(2),
        (1, 0): SymLaurent(2, {(1, 0): _Q, (0, 1): _Q, (-1, 0): _Q, (0, -1): _Q}),
        (1, 1): SymLaurent(2, {(1, 1): _Q, (0, 0): _Q, (-1, -1): _Q}),
        (1, -1): SymLaurent(2, {(1, -1): _Q, (0, 0): _Q, (-1, 1): _Q}),
    }


def satake_image(lam: Coweight, n: int) -> tuple[SymLaurent, bool]:
    """Satake image of the Hecke translation at lam (a dominant coweight of
    the rank-n even orthogonal Levi): exact when tabulated, otherwise the
    scaled orbit-sum stand-in (flagged)."""
    lam = tuple(lam)
    if not is_dominant(lam, Cone.H):
        raise ValueError("coweight is not dominant for the even orthogonal cone")
    if not any(lam):
        return SymLaurent.one(n), False
    if n == 2:
        table = so4_satake_table()
        if lam in table:
            return table[lam], False
    # <rho, lam> with rho = (n-1, n-2, .., 0)
    rho_pairing = sum((n - 1 - i) * lam[i] for i in range(n))
    poly = SymLaurent.constant(n, VLaurent.q_power(rho_pairing)) * orbit_sum(lam, n)
    return poly, True


def _paired_satake(lam: Coweight, n: int) -> tuple[SymLaurent, bool]:
    """Satake image summed over the tilde-orbit {lam, ~lam}, each member
    once."""
    lam = tuple(lam)
    flipped = tilde(lam)
    poly, stand_in = satake_image(lam, n)
    if flipped != lam:
        extra, extra_stand_in = satake_image(flipped, n)
        poly = poly + extra
        stand_in = stand_in or extra_stand_in
    return poly, stand_in


_KINDS = ("eta_lambda", "eta_square_theta", "eta_square_theta_prime", "rs_monomial")


@dataclasses.dataclass(frozen=True)
class BasisElementSpec:
    """One oldform family element at level gap = m - a above the conductor.

    ``eta_lambda``: depth shifts of the Hecke translate at lam (even gap).
    ``eta_square_theta`` / ``eta_square_theta_prime``: depth shifts of the
    orbit-paired translate composed with a raising step (odd gap).
    ``rs_monomial``: the raising word with counts = (i, j, k) meaning i
    second-kind steps, j first-kind steps, k depth shifts; i + j + 2k = gap.
    """

    kind: str
    gap: int
    n: int = 2
    lam: Coweight | None = None
    counts: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown basis element kind {self.kind!r}")
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.kind == "rs_monomial":
            if self.lam is not None or self.counts is None:
                raise ValueError("rs_monomial takes counts, not a coweight")
            i, j, k = self.counts
            if min(i, j, k) < 0 or i + j + 2 * k != self.gap:
                raise ValueError("counts must be non-negative with i + j + 2k = gap")
            return
        if self.counts is not None or self.lam is None:
            raise ValueError(f"{self.kind} takes a coweight, not counts")
        object.__setattr__(self, "lam", tuple(self.lam))
        if len(self.lam) != self.n:
            raise ValueError("coweight length differs from n")
        if self.kind == "eta_lambda":
            if self.gap % 2:
                raise ValueError("depth-shift family requires an even gap")
            if not is_dominant(self.lam, Cone.H):
                raise ValueError("coweight is not dominant for the even orthogonal cone")
            if 2 * sup_norm(self.lam) > self.gap:
                raise ValueError("coweight too large for the gap")
        else:
            if self.gap % 2 == 0:
                raise ValueError("raising-step family requires an odd gap")
            if not is_dominant(self.lam, Cone.G):
                raise ValueError("coweight is not dominant for the odd orthogonal cone")
            if 2 * sup_norm(self.lam) > self.gap - 1:
                raise ValueError("coweight too large for the gap")

    def label(self) -> str:
        if self.kind == "rs_monomial":
            i, j, k = self.counts
            return f"rs[i={i},j={j},k={k}]"
        short = {
            "eta_lambda": "eta",
            "eta_square_theta": "eta_sq*theta",
            "eta_square_theta_prime": "eta_sq*theta'",
        }[self.kind]
        return f"{short}[{','.join(str(x) for x in self.lam)}]"


@dataclasses.dataclass(frozen=True)
class XiImage:
    """Series image of a basis element: the polynomial, an exactness flag
    (False when an orbit-sum stand-in entered), and a human-readable label."""

    poly: SymLaurent
    stand_in: bool
    label: str

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "stand_in": self.stand_in,
            "poly": self.poly.to_json(),
        }


def basis_specs(n: int, gap: int) -> list[BasisElementSpec]:
    """The orbit-paired family at the given gap; its cardinality matches
    coweights.basis_cardinality."""
    if gap % 2 == 0:
        cone, bound = Cone.H, gap // 2
        kinds = ("eta_lambda",)
    else:
        cone, bound = Cone.G, (gap - 1) // 2
        kinds = ("eta_square_theta", "eta_square_theta_prime")
    out = []
    for lam in enumerate_cone(cone, n, bound):
        for kind in kinds:
            out.append(BasisElementSpec(kind, gap, n, lam))
    return out


def rs_specs(gap: int) -> list[BasisElementSpec]:
    """All raising words of total level gap (n = 2)."""
    out = []
    for k in range(gap // 2 + 1):
        for i in range(gap - 2 * k + 1):
            j = gap - 2 * k - i
            out.append(BasisElementSpec("rs_monomial", gap, 2, counts=(i, j, k)))
    return out


def _word(i: int, j: int, k: int, n: int = 2) -> SymLaurent:
    """Factor of the raising word theta'^i theta^j eta^k at rank n: i
    second-kind steps, j first-kind steps and k depth shifts."""
    poly = depth_shift_factor(n) ** k
    if i or j:
        if n != 2:
            raise ValueError("raising steps are only realized at n = 2")
        poly = theta_prime_factor() ** i * theta_factor() ** j * poly
    return poly


def xi_image(spec: BasisElementSpec) -> XiImage:
    """Series image of a basis element at its rank ``spec.n``: its raising
    word times its Hecke part."""
    n = spec.n
    if spec.kind == "rs_monomial":
        if n != 2:
            raise ValueError("raising words are only realized at n = 2")
        return XiImage(_word(*spec.counts), False, spec.label())
    if spec.kind == "eta_lambda":
        word = _word(0, 0, spec.gap // 2, n)
        hecke, stand_in = satake_image(spec.lam, n)
    else:
        i, j = (0, 1) if spec.kind == "eta_square_theta" else (1, 0)
        word = _word(i, j, (spec.gap - 1) // 2, n)
        hecke, stand_in = _paired_satake(spec.lam, n)
    return XiImage(word * hecke, stand_in, spec.label())


def bprime_images(gap: int) -> list[XiImage]:
    """The unpaired odd-gap family at n = 2: single-orbit Hecke translates
    over the odd orthogonal cone, composed with each raising step."""
    if gap % 2 == 0:
        raise ValueError("the unpaired family lives at odd gaps")
    out = []
    for lam in enumerate_cone(Cone.G, 2, (gap - 1) // 2):
        hecke, stand_in = satake_image(lam, 2)
        lam_txt = ",".join(str(x) for x in lam)
        for step, (i, j) in (("theta", (0, 1)), ("theta'", (1, 0))):
            word = _word(i, j, (gap - 1) // 2)
            out.append(XiImage(word * hecke, stand_in, f"eta*{step}[{lam_txt}]"))
    return out


def dependence_sides() -> tuple[SymLaurent, SymLaurent]:
    """Both sides of the gap-3 dependence in the unpaired family: the
    second-kind raise of the translate at (1,0) against the first-kind
    raise of q times the identity translate plus the translate at (1,1)."""
    s_e1, _ = satake_image((1, 0), 2)
    s_e12, _ = satake_image((1, 1), 2)
    return _word(1, 0, 1) * s_e1, _word(0, 1, 1) * (s_e12 + _Q)


def dependence_check_a3() -> bool:
    lhs, rhs = dependence_sides()
    return lhs == rhs


def rank_check(images: list[SymLaurent]) -> tuple[int, bool]:
    """Exact rank over Q(v) of the span of the images, and whether they are
    independent.

    Each image is a row of its coefficient matrix, one column per
    X-monomial.  Scaling row i by v^(-lo_i), lo_i its lowest v-exponent,
    makes its entries polynomials of degree at most its span (highest minus
    lowest v-exponent).  The rank is certified by specializing v to
    2, 3, 4, ... and eliminating over Q, with no probability and no
    tolerance:

    * v -> v0 is a ring homomorphism, so a nonzero minor at v0 is nonzero
      over Q(v).  The rank at any point is a lower bound, and one point of
      full rank proves independence.
    * Every (k+1)-minor of the scaled rows has degree at most the sum of
      the k + 1 largest spans.  Once every point tried has rank <= k and
      more points than that sum have been tried, every such minor vanishes
      identically, so the rank is k.
    """
    if len({p.r for p in images}) > 1:
        raise ValueError("variable counts differ")
    scaled = [_scaled_row(p) for p in images]
    spans = sorted((span for span, _ in scaled), reverse=True)
    rows = [row for _, row in scaled]
    best = tried = 0
    while best < len(images) and tried <= sum(spans[: best + 1]):
        best = max(best, _rank_at(rows, 2 + tried))
        tried += 1
    return best, best == len(images)


def _scaled_row(poly: SymLaurent) -> tuple[int, dict]:
    """The span of poly's v-exponents, and its numerators scaled by v^(-lo)
    as lists of (v-exponent, int) pairs.  Leaving out the shared
    denominator scales the row, which changes no rank."""
    exps = [k[-1] for k in poly.num]
    lo = min(exps, default=0)
    row: dict[tuple[int, ...], list] = {}
    for k, x in poly.num.items():
        row.setdefault(k[:-1], []).append((k[-1] - lo, x))
    return max(exps, default=0) - lo, row


def _rank_at(rows: list[dict], v0: int) -> int:
    """Rank over Q of the scaled rows at v = v0, by Gaussian elimination on
    sparse rows: each row is reduced by the pivot rows of its leading
    monomials until it is zero or has a leading monomial of its own."""
    pivots: dict[tuple[int, ...], dict] = {}
    for terms in rows:
        values = {mono: sum(c * v0**e for e, c in pairs) for mono, pairs in terms.items()}
        row = {mono: x for mono, x in values.items() if x}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            f = Fraction(row[lead], prow[lead])
            for mono, x in prow.items():
                y = row.get(mono, 0) - f * x
                if y:
                    row[mono] = y
                else:
                    del row[mono]
    return len(pivots)


def _canonical(poly: SymLaurent) -> str:
    return str(poly.to_json())


# The gaps m - a at which compare_bases compares the two families.
COMPARE_GAPS = range(5)


def compare_bases(m_minus_a: int) -> dict:
    """Compare the orbit-paired family with the raising-word family at n = 2:
    image lists, exact ranks, set difference, and span equality (by mutual
    rank).  Results are conditional when a stand-in image entered."""
    if m_minus_a not in COMPARE_GAPS:
        raise ValueError(f"gap out of the supported range 0..{COMPARE_GAPS[-1]}")
    b_images = [xi_image(s) for s in basis_specs(2, m_minus_a)]
    rs_images = [xi_image(s) for s in rs_specs(m_minus_a)]
    b_polys = [im.poly for im in b_images]
    rs_polys = [im.poly for im in rs_images]
    b_rank, b_indep = rank_check(b_polys)
    rs_rank, rs_indep = rank_check(rs_polys)
    union_rank, _ = rank_check(b_polys + rs_polys)
    b_set = {_canonical(p) for p in b_polys}
    rs_set = {_canonical(p) for p in rs_polys}
    spans_equal = b_rank == rs_rank == union_rank
    return {
        "m_minus_a": m_minus_a,
        "b_images": [im.to_json() for im in b_images],
        "rs_images": [im.to_json() for im in rs_images],
        "b_rank": b_rank,
        "rs_rank": rs_rank,
        "union_rank": union_rank,
        "b_independent": b_indep,
        "rs_independent": rs_indep,
        "sets_equal": b_set == rs_set,
        "b_only": sorted(
            im.label for im in b_images if _canonical(im.poly) not in rs_set
        ),
        "rs_only": sorted(
            im.label for im in rs_images if _canonical(im.poly) not in b_set
        ),
        "spans_equal": spans_equal,
        "conditional": any(im.stand_in for im in b_images + rs_images),
    }
