"""Normalized torus-sum series: components, local factors, functional
equation mechanics, and the rank-one zeta endpoints."""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

import pytest

from paramodular.characters import schur
from paramodular.coweights import Cone, enumerate_cone
from paramodular.rankin import (
    EpsilonData,
    EvaluationMode,
    SymbolicMode,
    XiResult,
    default_trunc,
    e_beta,
    fe_check,
    kernel_check,
    p_wedge2,
    psi_alternant,
    psi_component,
    psi_series,
    specialize_last,
    xi,
    zeta_series,
)
from paramodular import characters, rankin, rings
from paramodular.oldforms import depth_shift_factor, theta_factor, theta_prime_factor
from paramodular.rings import SymLaurent, TruncSeries, VLaurent
from paramodular.sampling import (
    random_beta,
    random_point,
    random_v,
    random_whittaker_data,
)
from paramodular.whittaker import (
    WhittakerData,
    eta_data,
    spherical_so_data,
    theta_data,
    theta_prime_data,
)

from laurent_oracles import is_homogeneous, unit_series
from sampling_oracles import random_vlaurent

ONE = VLaurent.one()
Q = VLaurent.q_power(1)
BETA2 = (Fraction(2), Fraction(3, 2))


def delta(lam, n=2):
    return WhittakerData(n, {tuple(lam): ONE})


def test_symbolic_mode_helpers():
    sym = SymbolicMode(2)
    assert sym.one() == SymLaurent.one(2)
    assert sym.lift(SymLaurent.monomial(2, (1, 0))) == SymLaurent.monomial(2, (1, 0))
    assert sym.schur((1, 1)) == SymLaurent.monomial(2, (1, 1))


def test_evaluation_mode_helpers():
    ev = EvaluationMode(2, (Fraction(2), Fraction(3)), Fraction(1, 2))
    assert ev.lift(SymLaurent.monomial(2, (1, 2))) == 18
    assert ev.lift(SymLaurent.monomial(2, (1, 0), Q)) == Fraction(1, 2)
    assert ev.schur((2, 1)) == schur((2, 1), 2).evaluate(
        (Fraction(2), Fraction(3)), Fraction(1, 2)
    )
    zero_point = EvaluationMode(1, (Fraction(0),), Fraction(2))
    assert zero_point.lift(SymLaurent.monomial(1, (2,))) == 0
    with pytest.raises(ZeroDivisionError):
        zero_point.lift(SymLaurent.monomial(1, (-1,)))
    with pytest.raises(ValueError):
        EvaluationMode(1, (Fraction(1),), Fraction(0))
    with pytest.raises(ValueError):
        EvaluationMode(2, (Fraction(1),), Fraction(2))


def test_evaluation_mode_schur_matches_symbolic_schur():
    rng = random.Random("evaluation-schur")
    for r in range(1, 5):
        for _ in range(3):
            pt, v = random_point(rng, r), random_v(rng)
            ev = EvaluationMode(r, pt, v)
            for lam in enumerate_cone(Cone.GL, r, 3 if r < 4 else 2):
                assert ev.schur(lam) == schur(lam, r).evaluate(pt, v), (lam, pt)
    # the values are integer determinants over a power of the lcm B of the
    # denominators: distinct coprime denominators make B a product, negative
    # signs enter every h_m, and a negative lam_r meets the twist at nonzero
    # points; r = 5 over a small box
    points = [
        (Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 5), Fraction(5, 7), Fraction(-7, 11)),
        (Fraction(3), Fraction(-1, 4), Fraction(5, 9), Fraction(-4, 5), Fraction(2, 7)),
    ]
    for pt in points:
        for r in (2, 3, 5):
            ev = EvaluationMode(r, pt[:r], Fraction(3, 2))
            lams = enumerate_cone(Cone.GL, r, 2 if r < 5 else 1)
            assert any(lam[-1] < 0 for lam in lams)
            for lam in lams:
                want = schur(lam, r).evaluate(pt[:r], Fraction(3, 2))
                assert ev.schur(lam) == want, (lam, pt[:r])
    # a zero entry: fine for partitions, a division by zero for lam_r < 0,
    # exactly as when the symbolic polynomial is evaluated
    zero = EvaluationMode(2, (Fraction(0), Fraction(3)), Fraction(2))
    assert zero.schur((2, 1)) == 0
    assert zero.schur((2, 0)) == 9
    for lam in [(1, -1), (0, -2)]:
        with pytest.raises(ZeroDivisionError):
            schur(lam, 2).evaluate(zero.point, zero.v_value)
        with pytest.raises(ZeroDivisionError):
            zero.schur(lam)
    ev = EvaluationMode(2, (Fraction(2), Fraction(3)), Fraction(1, 2))
    for lam in [(1,), (1, 0, 0), (0, 1), (-1, 2)]:
        with pytest.raises(ValueError):
            schur(lam, 2)
        with pytest.raises(ValueError):
            ev.schur(lam)


def test_evaluation_mode_matches_symbolic_series_end_to_end():
    # ROADMAP oracle: evaluation mode is symbolic mode followed by evaluation
    rng = random.Random("modes-agree")
    for n in range(1, 4):
        # weight (1, 0, ..., 0) reaches every r, so no series is trivially zero
        first = (1,) + (0,) * (n - 1)
        for r in range(1, n + 1):
            for _ in range(2):
                d = random_whittaker_data(rng, n, max_norm=2, max_entries=4)
                d = WhittakerData(n, {**dict(d.items()), first: random_vlaurent(rng)})
                beta = random_beta(rng, n, max_abs=3)
                pt, v = random_point(rng, r, max_abs=3), random_v(rng, max_abs=3)
                mode = EvaluationMode(r, pt, v)
                ev = xi(d, n, r, beta=beta, mode=mode, trunc=4, window=2)
                sym = xi(d, n, r, beta=beta, trunc=4, window=2)
                want = [sym.series.get(k) for k in range(5)]
                assert any(want), (n, r, d)
                got = [ev.series.get(k) for k in range(5)]
                assert got == [c.evaluate(pt, v) for c in want], (n, r, d)


def test_psi_component_point_masses():
    sym2 = SymbolicMode(2)
    sym1 = SymbolicMode(1)
    d10 = delta((1, 0))
    # weight exponent: GL modulus 1, plus trace * (2n - r - 1) = 1
    assert psi_component(d10, 2, 2, 1, sym2) == SymLaurent(
        2, {(1, 0): VLaurent.v_power(2), (0, 1): VLaurent.v_power(2)}
    )
    assert psi_component(d10, 2, 2, 0, sym2) == SymLaurent.zero(2)
    assert psi_component(d10, 2, 2, -1, sym2) == SymLaurent.zero(2)
    # r = 1 slice keeps (1,0) with weight 0 + 1*(4 - 1 - 1) = 2
    assert psi_component(d10, 2, 1, 1, sym1) == SymLaurent.monomial(
        1, (1,), VLaurent.v_power(2)
    )
    d11 = delta((1, 1))
    # nonzero tail entry: invisible on the r = 1 slice
    assert psi_component(d11, 2, 1, 2, sym1) == SymLaurent.zero(1)
    assert psi_component(d11, 2, 2, 2, sym2) == SymLaurent.monomial(
        2, (1, 1), VLaurent.v_power(2)
    )


def test_psi_component_validation():
    with pytest.raises(ValueError):
        psi_component(delta((1, 0)), 2, 3, 1, SymbolicMode(3))
    with pytest.raises(ValueError):
        psi_component(delta((1, 0)), 2, 2, 1, SymbolicMode(1))
    with pytest.raises(ValueError):
        psi_component(delta((1,), n=1), 2, 1, 1, SymbolicMode(1))


def test_psi_components_are_homogeneous():
    d = spherical_so_data(BETA2, 2, 4)
    sym = SymbolicMode(2)
    for ell in range(5):
        c = psi_component(d, 2, 2, ell, sym)
        assert is_homogeneous(c, ell), ell


def test_psi_series_collects_components():
    d = spherical_so_data(BETA2, 2, 3)
    sym = SymbolicMode(2)
    s = psi_series(d, 2, 2, 3, sym)
    assert s.trunc == 3
    for ell in range(4):
        assert s.get(ell) == psi_component(d, 2, 2, ell, sym)


class _ScaledSchur:
    """A mode mixin whose s_lam is scaled by 1 / (lam_1 + 2), so that the
    Schur values of one trace carry different denominators, and which
    records every lookup."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = []

    def schur(self, lam):
        self.lookups.append(lam)
        return super().schur(lam) * Fraction(1, lam[0] + 2)


class _ScaledSymbolic(_ScaledSchur, SymbolicMode):
    pass


class _ScaledEvaluation(_ScaledSchur, EvaluationMode):
    pass


def _scaled_psi_oracle(d, n, r, ell):
    """psi_ell with each s_lam scaled as _ScaledSchur does, scanning every
    weight of items()."""
    out = SymLaurent.zero(r)
    for lam, x in d.items():
        if sum(lam) == ell and not any(lam[r:]):
            head = lam[:r]
            w = sum(head[i] * (r - 1 - 2 * i) for i in range(r)) + ell * (2 * n - r - 1)
            scaled = schur(head, r) * Fraction(1, head[0] + 2)
            out = out + SymLaurent.constant(r, x * VLaurent.v_power(w)) * scaled
    return out


def test_schur_is_looked_up_once_per_weight_and_its_denominator_kept():
    # several weights per trace, values of up to three v-terms with
    # different denominators, and weights with a nonzero tail
    rng = random.Random("psi-weights")
    point, v = (Fraction(2), Fraction(-3, 5), Fraction(7)), Fraction(5, 3)
    for n in (2, 3):
        cone = enumerate_cone(Cone.G, n, 2)
        for _ in range(4):
            support = rng.sample(cone, min(6, len(cone)))
            d = WhittakerData(n, {lam: random_vlaurent(rng) + random_vlaurent(rng) for lam in support})
            for r in range(1, n + 1):
                sym, ev = _ScaledSymbolic(r), _ScaledEvaluation(r, point[:r], v)
                top = d.max_trace()
                for mode in (sym, ev):
                    psi_series(d, n, r, top, mode)
                want = sorted(lam[:r] for lam in d.support if not any(lam[r:]))
                assert sorted(sym.lookups) == sorted(ev.lookups) == want
                for ell in range(top + 1):
                    c = _scaled_psi_oracle(d, n, r, ell)
                    assert psi_component(d, n, r, ell, _ScaledSymbolic(r)) == c
                    got = psi_component(d, n, r, ell, _ScaledEvaluation(r, point[:r], v))
                    assert got == c.evaluate(point[:r], v)


def _unreadable(value):
    raise AssertionError(f"the nested view of a {type(value).__name__} was read")


def test_psi_reads_the_flat_store_and_builds_no_nested_view(monkeypatch):
    rng = random.Random("psi-no-view")
    for n, moves in ((2, (theta_data, theta_prime_data, eta_data)), (3, (eta_data,))):
        for _ in range(3):
            # the data, its moves, psi, xi and zeta read no nested view of
            # any Laurent value: every read of c raises
            with monkeypatch.context() as patch:
                for cls in (SymLaurent, VLaurent):
                    patch.setattr(cls, "c", property(_unreadable))
                d = random_whittaker_data(rng, n)
                images = []
                for move in moves:
                    moved = move(d)
                    images.append(moved)
                    for r in range(1, n + 1):
                        point = random_point(rng, r)
                        for mode in (SymbolicMode(r), EvaluationMode(r, point, random_v(rng))):
                            psi_series(moved, n, r, 6, mode)
                            xi(moved, n, r, mode=mode)
                    zeta_series(moved, n, 6)
            # the view, read afterwards, agrees with what psi read
            for moved in images:
                series = psi_series(moved, n, n, 6, SymbolicMode(n))
                assert [series.get(ell) for ell in range(7)] == [
                    _psi_oracle(moved, n, n, ell) for ell in range(7)
                ]


def test_psi_component_refuses_a_v_exponent_past_the_field_limit():
    # at n = r = 2 the weight (1, 0) adds 2 to its v-exponents, and its
    # Schur polynomial X_1 + X_2 has bound 1
    limit = rings._LIMIT
    fits = WhittakerData(2, {(1, 0): VLaurent.v_power(limit - 3)})
    top = VLaurent.v_power(limit - 1)
    assert psi_component(fits, 2, 2, 1, SymbolicMode(2)) == SymLaurent(2, {(1, 0): top, (0, 1): top})
    for e in (limit - 2, limit):
        past = WhittakerData(2, {(1, 0): VLaurent({e: 1, 0: 1})})
        for call in (
            lambda: psi_component(past, 2, 2, 1, SymbolicMode(2)),
            lambda: psi_series(past, 2, 2, 2, SymbolicMode(2)),
        ):
            with pytest.raises(OverflowError):
                call()
                pytest.fail("a value past the field limit was returned")


def test_symbolic_psi_component_reads_only_the_weights_of_its_trace():
    # at n = r = 2 the weight (1, 0) adds 2 to its v-exponents, which takes
    # v^32766 past the field limit, and (1, 1) adds 2 to those of
    # s = X_1 X_2: trace 2 neither reads the weight of trace 1 nor looks up
    # its Schur polynomial
    d = WhittakerData(2, {(1, 0): VLaurent.v_power(32766), (1, 1): ONE})
    want = SymLaurent.monomial(2, (1, 1), VLaurent.v_power(2))
    assert psi_component(d, 2, 2, 2, SymbolicMode(2)) == want
    spy = _ScaledSymbolic(2)
    assert psi_component(d, 2, 2, 2, spy) == want * Fraction(1, 3)
    assert spy.lookups == [(1, 1)]
    with pytest.raises(OverflowError):
        psi_component(d, 2, 2, 1, SymbolicMode(2))
        pytest.fail("a value past the field limit was returned")


def _packed_fractions(packed) -> dict:
    return {k: Fraction(x, packed.den) for k, x in packed.terms}


def _oracle_coeffs(d, n, r, trunc) -> dict:
    """The nonzero degrees of psi through trunc, from ``_psi_oracle``."""
    return {ell: c for ell in range(trunc + 1) if (c := _psi_oracle(d, n, r, ell))}


def test_packed_psi_is_psi_series_packed():
    # symbolic psi, formed in one accumulator from the data's flat terms,
    # against the scan-every-weight oracle packed afterwards: the same
    # terms, and once split the same normalized degrees; on random and
    # spherical data, the empty data, weights with a nonzero tail and
    # weights past trunc
    rng = random.Random("packed-psi")
    data = [WhittakerData(n) for n in (1, 3)]
    data.append(WhittakerData(3, {(1, 1, 0): ONE, (2, 1, 1): Q, (5, 2, 0): Q + ONE}))
    for n in range(1, 4):
        data += [random_whittaker_data(rng, n, max_norm=2, max_entries=6) for _ in range(3)]
        data.append(spherical_so_data(random_beta(rng, n), n, 6))
    tails = past = 0
    for d in data:
        n = d.n
        for r in range(1, n + 1):
            mode = SymbolicMode(r)
            tails += any(any(lam[r:]) for lam in d.support)
            for trunc in range(9):
                past += d.max_trace() > trunc
                got = rankin._packed_psi(d, n, r, trunc, mode)
                want = _oracle_coeffs(d, n, r, trunc)
                assert _packed_fractions(got) == _packed_fractions(rings._Packed.of(want, mode.zero()))
                split = got.series(trunc)
                assert (split.trunc, split.coeffs) == (trunc, want), (d, r, trunc)
    assert tails and past
    with pytest.raises(ValueError):
        rankin._packed_psi(data[2], 3, 2, 8, SymbolicMode(3))


def test_packed_psi_keeps_the_schur_denominators(monkeypatch):
    # Schur values of one trace over different denominators, as
    # _ScaledSchur scales them: one accumulator over their lcm
    rng = random.Random("packed-psi-scaled")
    monkeypatch.setattr(rankin, "schur", lambda lam, r: schur(lam, r) * Fraction(1, lam[0] + 2))
    for n in (2, 3):
        cone = enumerate_cone(Cone.G, n, 2)
        for _ in range(3):
            support = rng.sample(cone, min(6, len(cone)))
            d = WhittakerData(n, {lam: random_vlaurent(rng) + random_vlaurent(rng) for lam in support})
            for r in range(1, n + 1):
                top = d.max_trace()
                got = rankin._packed_psi(d, n, r, top, SymbolicMode(r)).series(top)
                assert got.coeffs == {
                    ell: c for ell in range(top + 1) if (c := _scaled_psi_oracle(d, n, r, ell))
                }


def test_packed_psi_keeps_the_field_limit_where_psi_series_does():
    # the bound is that of s_head plus |e + w|, per term: at n = r = 1 the
    # weight (2) has s = X_1^2 and w = 0, at n = r = 2 the weight (1, 0)
    # has s = X_1 + X_2 and w = 2; a bound of exactly the limit passes
    limit = rings._LIMIT
    for n, lam, step in ((1, (2,), 2), (2, (1, 0), 3)):
        mode = SymbolicMode(n)
        at = WhittakerData(n, {lam: VLaurent({limit - step: 1, 0: 1})})
        got = rankin._packed_psi(at, n, n, 2, mode)
        assert got.bound == limit
        assert got.series(2).coeffs == _oracle_coeffs(at, n, n, 2)
        past = WhittakerData(n, {lam: VLaurent({limit - step + 1: 1, 0: 1})})
        for call in (
            lambda: rankin._packed_psi(past, n, n, 2, mode),
            lambda: _oracle_coeffs(past, n, n, 2),
        ):
            with pytest.raises(OverflowError):
                call()
                pytest.fail("a value past the field limit was returned")
        # past trunc the weight is not read, so nothing is refused
        assert not rankin._packed_psi(past, n, n, sum(lam) - 1, mode).terms
    # nor is its Schur polynomial built, which here would pass the limit
    wide = WhittakerData(2, {(limit, 0): ONE, (1, 0): ONE})
    want = _oracle_coeffs(wide, 2, 2, 5)
    assert rankin._packed_psi(wide, 2, 2, 5, SymbolicMode(2)).series(5).coeffs == want


def times_factors(a: TruncSeries, factors: list, mode, trunc: int) -> TruncSeries:
    """a times the power factors through Y-degree trunc, by the mode's one
    pass.  Symbolic mode's pass takes and gives one packed value: a is
    packed in its own ring and the product split through trunc."""
    if isinstance(mode, EvaluationMode):
        return mode._times(a, factors, trunc)
    packed = rings._Packed.of(a.coeffs, a.zero)
    return mode._times(packed, factors, trunc).series(trunc)


def times_p_phi(a: TruncSeries, beta, n: int, mode, trunc: int) -> TruncSeries:
    """a times P_phi through Y-degree trunc: the pass with P_phi's factors."""
    return times_factors(a, rankin._phi_factors(beta, n, mode.r, trunc), mode, trunc)


def over_p_wedge2(a: TruncSeries, mode, trunc: int) -> TruncSeries:
    """a / P_wedge2 through Y-degree trunc: the pass with the geometric
    inverses of P_wedge2's factors, as xi takes them."""
    return times_factors(a, rankin._wedge_factors(mode.r, [1] * (trunc // 2 + 1)), mode, trunc)


def p_phi(beta, n: int, mode, trunc: int) -> TruncSeries:
    """P_phi through Y-degree trunc, ``times_p_phi`` of the unit series:
    all of it at trunc = 2nr, its degree."""
    return times_p_phi(unit_series(mode), beta, n, mode, trunc)


def test_p_phi_pi_rank_one_expansion():
    p = p_phi((Fraction(2),), 1, SymbolicMode(1), 2)
    assert p.trunc == 2
    assert max(p.coeffs) == 2
    assert p.get(0) == SymLaurent.one(1)
    assert p.get(1) == SymLaurent.monomial(1, (1,), VLaurent({-1: Fraction(-5, 2)}))
    assert p.get(2) == SymLaurent.monomial(1, (2,), VLaurent.v_power(-2))


def test_p_phi_pi_degree_and_validation():
    p = p_phi(BETA2, 2, SymbolicMode(2), 8)
    assert max(p.coeffs) == 8  # 2 * n * r
    assert p.get(0) == SymLaurent.one(2)
    with pytest.raises(ValueError):
        p_phi((Fraction(2),), 2, SymbolicMode(2), 8)
    with pytest.raises(ValueError):
        p_phi((Fraction(2), Fraction(0)), 2, SymbolicMode(2), 8)
    with pytest.raises(ValueError):  # a series of another mode
        times_p_phi(unit_series(SymbolicMode(2)), BETA2, 2, SymbolicMode(1), 8)


def _p_phi_oracle(beta, r: int, mode) -> TruncSeries:
    """P_phi as the product of its 2nr linear factors
    (1 - beta_i^{+-1} v^{-1} X_j Y), one series product each."""
    out = unit_series(mode)
    for j in range(r):
        xj = [int(i == j) for i in range(r)]
        for b in beta:
            for root in (b, 1 / b):
                lin = mode.lift(SymLaurent.monomial(r, xj, VLaurent({-1: -root})))
                out = out * TruncSeries({0: mode.one(), 1: lin}, None, mode.zero())
    return out


F = Fraction
P_PHI_BETAS = {
    1: [(F(2),), (F(-3, 5),), (F(1),), (F(-1),)],
    2: [(F(2), F(3, 2)), (F(1), F(-1)), (F(-2, 7), F(5, 3)), (F(-4), F(-1, 9))],
    3: [(F(2), F(-1, 3), F(5, 4)), (F(1), F(-1), F(7)), (F(-3, 2), F(2, 5), F(-1))],
}
P_PHI_POINTS = [
    ((F(2), F(-3), F(1, 5)), F(1, 2)),
    ((F(0), F(3, 4), F(-2)), F(-3)),
    ((F(-5, 3), F(0), F(0)), F(-2, 5)),
    ((F(1), F(7, 2), F(0)), F(5, 3)),
]


def test_e_beta_is_palindromic_with_constant_term_one():
    for n, betas in P_PHI_BETAS.items():
        for beta in betas:
            e, den = e_beta(beta)
            assert len(e) == 2 * n + 1
            assert e == e[::-1]
            assert e[0] == den
    # beta = (1, -1): E(t) = (1 - t)^2 (1 + t)^2 = 1 - 2t^2 + t^4
    e, den = e_beta((F(1), F(-1)))
    assert [F(x, den) for x in e] == [1, 0, -2, 0, 1]


def test_p_phi_pi_matches_the_linear_factor_product():
    for n, betas in P_PHI_BETAS.items():
        for beta in betas:
            for r in range(1, n + 1):
                modes = [SymbolicMode(r)] + [
                    EvaluationMode(r, pt[:r], v) for pt, v in P_PHI_POINTS
                ]
                for mode in modes:
                    got = p_phi(beta, n, mode, 2 * n * r)
                    assert got.trunc == 2 * n * r
                    assert got.coeffs == _p_phi_oracle(beta, r, mode).coeffs, (beta, r, mode)
                    assert got.get(0) == 1
                assert max(p_phi(beta, n, modes[0], 2 * n * r).coeffs) == 2 * n * r


def test_p_phi_pi_at_rank_four():
    beta = (F(2), F(-3, 5), F(1), F(7, 4))
    modes = [
        SymbolicMode(4),
        EvaluationMode(4, (F(3, 2), F(-1), F(0), F(5, 7)), F(-4, 3)),
    ]
    for mode in modes:
        got = p_phi(beta, 4, mode, 32)
        assert got.coeffs == _p_phi_oracle(beta, 4, mode).coeffs
    assert max(p_phi(beta, 4, modes[0], 32).coeffs) == 32


def test_p_wedge2_small_ranks():
    assert p_wedge2(1, SymbolicMode(1), 0).coeffs == {0: SymLaurent.one(1)}
    p2 = p_wedge2(2, SymbolicMode(2), 2)
    assert p2.coeffs == {
        0: SymLaurent.one(2),
        2: SymLaurent.monomial(2, (1, 1), -VLaurent.v_power(-2)),
    }
    p3 = p_wedge2(3, SymbolicMode(3), 6)
    assert max(p3.coeffs) == 6
    assert p3.get(6) == SymLaurent.monomial(3, (2, 2, 2), -VLaurent.v_power(-6))


def test_evaluation_p_wedge2_is_the_symbolic_product_at_the_point():
    """Oracle for the integer convolution: evaluation P_wedge2 equals the
    symbolic product of the two-term factors evaluated at the same point,
    coefficient by coefficient, at every truncation through and past its
    degree r(r-1), at points with a zero entry, a negative v and v with
    |p|, |q| > 1."""
    rng = random.Random("p-wedge2-oracle")
    for r in range(1, 7):
        points = [
            (random_point(rng, r), random_v(rng)),
            ((Fraction(0),) + random_point(rng, r - 1), Fraction(-3, 5)),
            (tuple(Fraction(-2 - i, 7) for i in range(r)), Fraction(-9, 4)),
        ]
        for trunc in range(r * (r - 1) + 2):
            sym = p_wedge2(r, SymbolicMode(r), trunc)
            for point, v in points:
                got = p_wedge2(r, EvaluationMode(r, point, v), trunc)
                assert got.trunc == trunc
                want = {k: c.evaluate(point, v) for k, c in sym.coeffs.items()}
                assert got.coeffs == {k: x for k, x in want.items() if x}, (r, trunc, point, v)
                if trunc >= r * (r - 1) and 0 not in point:
                    assert max(got.coeffs) == r * (r - 1)


def _random_series(rng: random.Random, mode, trunc: int) -> TruncSeries:
    """A series through trunc whose coefficients have one to four
    X-monomials with exponents in -3..3, each over a v-part of one to three
    terms; in evaluation mode, their values at the point."""
    r = mode.r
    coeffs = {}
    for k in rng.sample(range(10), rng.randint(0, 5)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            v_part = {rng.randint(-4, 4): F(rng.randint(-9, 9), rng.randint(1, 6))}
            for _ in range(rng.randint(0, 2)):
                v_part[rng.randint(-4, 4)] = F(rng.randint(-9, 9), rng.randint(1, 6))
            terms[tuple(rng.randint(-3, 3) for _ in range(r))] = VLaurent(v_part)
        coeffs[k] = mode.lift(SymLaurent(r, terms))
    return TruncSeries(coeffs, trunc, mode.zero())


def test_factor_passes_match_the_dense_products():
    # times P_phi by its r factors E_beta(v^-1 X_j Y), against the 2nr
    # linear factors; over P_wedge2 by the geometric inverses of its
    # factors, against the series inverse of P_wedge2
    rng = random.Random("factor-passes")
    for r in range(1, 5):
        beta = random_beta(rng, r)
        point = EvaluationMode(r, random_point(rng, r), random_v(rng))
        for mode in (SymbolicMode(r), point):
            for trunc in range(10):
                a = _random_series(rng, mode, trunc)
                want = a
                for j, b in itertools.product(range(r), beta):
                    xj = [int(i == j) for i in range(r)]
                    for root in (b, 1 / b):
                        lin = mode.lift(SymLaurent.monomial(r, xj, VLaurent({-1: -root})))
                        want = want * TruncSeries({0: mode.one(), 1: lin}, None, mode.zero())
                got = times_p_phi(a, beta, r, mode, trunc)
                assert (got.trunc, got.coeffs) == (trunc, want.coeffs), (r, mode, trunc)
                want = a * p_wedge2(r, mode, trunc).invert(trunc)
                got = over_p_wedge2(a, mode, trunc)
                assert (got.trunc, got.coeffs) == (trunc, want.coeffs), (r, mode, trunc)


def test_evaluation_pass_keeps_the_product_horizon(monkeypatch):
    # the per-degree integer sum of evaluation mode, on series known through
    # no horizon, a lower, a higher one and on the empty series, against the
    # dense product with the 2nr linear factors; it forms no series product
    rng = random.Random("phi-times-horizon")
    for r in range(1, 4):
        beta = random_beta(rng, r)
        mode = EvaluationMode(r, random_point(rng, r), random_v(rng))
        for trunc in range(8):
            for own in (None, max(trunc - 2, 0), trunc + 3):
                coeffs = _random_series(rng, mode, 9).coeffs
                for a in (TruncSeries(coeffs, own, mode.zero()), TruncSeries({}, own, mode.zero())):
                    want = TruncSeries({0: mode.one()}, trunc, mode.zero()) * a
                    for j, b in itertools.product(range(r), beta):
                        xj = [int(i == j) for i in range(r)]
                        for root in (b, 1 / b):
                            lin = mode.lift(SymLaurent.monomial(r, xj, VLaurent({-1: -root})))
                            want = want * TruncSeries({0: mode.one(), 1: lin}, None, mode.zero())
                    with monkeypatch.context() as patch:
                        patch.setattr(TruncSeries, "__mul__", None)
                        got = mode._times(a, rankin._phi_factors(beta, r, r, trunc), trunc)
                    horizon = trunc if own is None else min(trunc, own)
                    assert (got.trunc, got.coeffs) == (horizon, want.coeffs), (r, trunc, own)
                    assert all(got.coeffs.values())


def test_factor_passes_keep_the_field_limit():
    limit, mode = rings._LIMIT, SymbolicMode(2)
    # X_1 past the limit in the Y^1 term of E_beta(v^-1 X_1 Y), v past it
    # in the Y^2 term of 1 / (1 - v^-2 X_1 X_2 Y^2)
    top = SymLaurent.monomial(2, (limit, 0))
    low = SymLaurent.monomial(2, (0, 0), VLaurent({1 - limit: 1}))
    with pytest.raises(OverflowError):
        times_p_phi(TruncSeries({0: top}, 4, mode.zero()), BETA2, 2, mode, 4)
    with pytest.raises(OverflowError):
        over_p_wedge2(TruncSeries({0: low}, 4, mode.zero()), mode, 4)


def test_evaluation_pass_is_the_symbolic_pass_at_the_point():
    # cross-mode oracle for the two kernels: for P_phi's factors, those of
    # P_wedge2, their geometric inverses, xi's list of both and no factor,
    # the evaluation pass equals the symbolic pass lifted to the point,
    # degree by degree, on series known through no horizon, a lower and a
    # higher one, at a point with a zero entry and at negative v
    rng = random.Random("pass-cross-mode")
    for r in range(1, 5):
        beta, sym = random_beta(rng, r), SymbolicMode(r)
        points = [
            (random_point(rng, r), random_v(rng)),
            ((F(0),) + random_point(rng, r - 1), F(-3, 5)),
            (tuple(F(-2 - i, 7) for i in range(r)), F(-9, 4)),
        ]
        # X-exponents in 0..6, so that a zero entry evaluates
        shift = SymLaurent.monomial(r, (3,) * r)
        for trunc in range(11):
            phi = rankin._phi_factors(beta, r, r, trunc)
            geometric = rankin._wedge_factors(r, [1] * (trunc // 2 + 1))
            lists = [phi, rankin._wedge_factors(r, [1, -1]), geometric, phi + geometric, []]
            coeffs = {k: shift * c for k, c in _random_series(rng, sym, 9).coeffs.items()}
            for own, factors in itertools.product((None, max(trunc - 3, 0), trunc + 2), lists):
                a = TruncSeries(coeffs, own, sym.zero())
                horizon = trunc if own is None else min(trunc, own)
                want = times_factors(a, factors, sym, horizon)
                for point, v in points:
                    mode = EvaluationMode(r, point, v)
                    at = {k: c.evaluate(point, v) for k, c in a.coeffs.items()}
                    got = mode._times(TruncSeries(at, own, mode.zero()), factors, trunc)
                    lifted = {k: c.evaluate(point, v) for k, c in want.coeffs.items()}
                    assert got.trunc == horizon
                    assert got.coeffs == {k: x for k, x in lifted.items() if x}, (r, trunc, own, v)


def test_p_wedge2_times_its_geometric_inverses_is_the_unit_series():
    # P_wedge2 times the geometric inverses of its factors, and the unit
    # times both lists in one pass, is 1 through trunc, in both modes
    rng = random.Random("wedge-unit")
    for r in range(1, 6):
        modes = [
            SymbolicMode(r),
            EvaluationMode(r, random_point(rng, r), random_v(rng)),
            EvaluationMode(r, (F(0),) + random_point(rng, r - 1), F(-3, 5)),
        ]
        for mode, trunc in itertools.product(modes, range(13)):
            geometric = rankin._wedge_factors(r, [1] * (trunc // 2 + 1))
            got = times_factors(p_wedge2(r, mode, trunc), geometric, mode, trunc)
            assert (got.trunc, got.coeffs) == (trunc, {0: mode.one()}), (r, trunc, mode)
            both = geometric + rankin._wedge_factors(r, [1, -1])
            got = times_factors(unit_series(mode), both, mode, trunc)
            assert (got.trunc, got.coeffs) == (trunc, {0: mode.one()}), (r, trunc, mode)


def test_factors_truncated_at_trunc_give_the_exact_xi():
    # xi builds P_phi and P_wedge2 only through its trunc; the series, its
    # value and its verdict are those of the exact factors
    rng = random.Random("truncated-factors")
    unstable = 0
    for n in range(1, 4):
        for r in range(1, n + 1):
            beta = random_beta(rng, n)
            point, v = random_point(rng, r), random_v(rng)
            for mode in (SymbolicMode(r), EvaluationMode(r, point, v)):
                exact = (p_phi(beta, n, mode, 2 * n * r), p_wedge2(r, mode, r * (r - 1)))
                for trunc in (0, 1, 3, 2 * n * r - 1):
                    cuts = (p_phi(beta, n, mode, trunc), p_wedge2(r, mode, trunc))
                    for full, cut in zip(exact, cuts):
                        assert cut.trunc == trunc
                        assert cut.coeffs == {k: x for k, x in full.coeffs.items() if k <= trunc}
                # both are polynomials known through their degrees
                num, den = (TruncSeries(f.coeffs, None, mode.zero()) for f in exact)
                data = (spherical_so_data(beta, n, 5), random_whittaker_data(rng, n))
                for d, trunc in itertools.product(data, (2, 5)):
                    got = xi(d, n, r, beta=beta, mode=mode, trunc=trunc, window=2)
                    psi = psi_series(d, n, r, trunc, mode)
                    want = num * psi * den.invert(trunc)
                    assert (got.series.trunc, got.series.coeffs) == (trunc, want.coeffs)
                    assert got.poly == sum(want.coeffs.values(), mode.zero())
                    assert got.stabilized == all(not want.get(k) for k in (trunc - 1, trunc))
                    unstable += not got.stabilized
    assert unstable


def test_public_surface_is_what_the_verifier_uses():
    # Helpers that only tests call live in the tests; a new public name
    # here has to be added to this list on purpose.
    defined = {
        name
        for name, obj in vars(rankin).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == rankin.__name__
    }
    assert defined == {
        "EpsilonData",
        "EvaluationMode",
        "SymbolicMode",
        "XiResult",
        "default_trunc",
        "e_beta",
        "fe_check",
        "kernel_check",
        "p_wedge2",
        "psi_alternant",
        "psi_component",
        "psi_series",
        "specialize_last",
        "xi",
        "zeta_series",
    }
    # each mode multiplies by lists of power factors in one pass; only
    # evaluation mode has a torus sum of its own, symbolic psi being packed,
    # and reads the factors' integer convolution into Fractions itself
    methods = {"_times", "lift", "one", "schur", "zero"}
    evaluation = {"_convolution", "_series", "_torus_sum"}
    for cls, own in ((SymbolicMode, set()), (EvaluationMode, evaluation)):
        assert {name for name in vars(cls) if not name.startswith("__")} == methods | own, cls.__name__


def test_default_trunc_formula():
    d = delta((2, 1))
    assert default_trunc(d, 2, 2, 4) == 3 + 8 + 2 + 4
    assert default_trunc(WhittakerData(2), 2, 1, 2) == 0 + 4 + 0 + 2


def test_unramified_rank_one_series_is_one():
    beta = (Fraction(7, 3),)
    d = spherical_so_data(beta, 1, 10)
    res = xi(d, 1, 1, beta=beta, trunc=10)
    assert res.poly == SymLaurent.one(1)
    assert res.stabilized
    assert res.detected_degree == 0
    ev = EvaluationMode(1, (Fraction(5, 7),), Fraction(3, 2))
    res_ev = xi(d, 1, 1, beta=beta, mode=ev, trunc=10)
    assert res_ev.poly == Fraction(1)
    assert res_ev.stabilized


def test_unramified_rank_two_series_is_one():
    d = spherical_so_data(BETA2, 2, 10)
    res = xi(d, 2, 2, beta=BETA2, trunc=10)
    assert res.poly == SymLaurent.one(2)
    assert res.stabilized
    assert res.detected_degree == 0


# Satake points random_beta never draws: beta_i = +-1, beta_i = beta_j^-1
# and beta_i = beta_j
DEGENERATE_BETAS = [
    (Fraction(1), Fraction(2)),
    (Fraction(3), Fraction(1, 3)),
    (Fraction(-1), Fraction(-1)),
    (Fraction(2), Fraction(2)),
]


@pytest.mark.parametrize("beta", DEGENERATE_BETAS, ids=lambda b: ",".join(map(str, b)))
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("mode_name", ["evaluation", "symbolic"])
def test_unramified_series_is_one_at_degenerate_points(beta, r, mode_name):
    # the unramified identity end to end, at points where the symplectic
    # character's Weyl denominator vanishes
    if mode_name == "symbolic":
        mode = SymbolicMode(r)
    else:
        mode = EvaluationMode(r, (Fraction(5, 7), Fraction(-3, 2))[:r], Fraction(3, 2))
    d = spherical_so_data(beta, 2, 8)
    res = xi(d, 2, r, beta=beta, mode=mode, trunc=8)
    assert res.stabilized
    assert res.series.first_mismatch(unit_series(mode), 8) is None


def test_raised_data_normalized_series():
    d = spherical_so_data(BETA2, 2, 12)
    res_t = xi(theta_data(d), 2, 2, beta=BETA2, trunc=10, level=1)
    e1 = SymLaurent(2, {(1, 0): Q, (0, 1): Q})
    assert res_t.poly == e1
    assert res_t.stabilized and res_t.detected_degree == 1 and res_t.m == 1
    res_tp = xi(theta_prime_data(d), 2, 2, beta=BETA2, trunc=10, level=1)
    assert res_tp.poly == SymLaurent(2, {(0, 0): Q, (1, 1): Q})
    assert res_tp.detected_degree == 2
    res_e = xi(eta_data(d), 2, 2, beta=BETA2, trunc=10, level=2)
    assert res_e.poly == SymLaurent.monomial(2, (1, 1), Q)
    assert res_e.detected_degree == 2


def test_xi_without_numerator_never_stabilizes():
    res = xi(delta((0, 0)), 2, 2, trunc=8, window=4)
    assert not res.stabilized
    assert res.detected_degree == 8
    expected = SymLaurent.zero(2)
    for k in range(5):
        expected = expected + SymLaurent.monomial(2, (k, k), VLaurent.v_power(-2 * k))
    assert res.poly == expected


def test_xi_argument_validation():
    with pytest.raises(ValueError):
        xi(delta((0, 0)), 2, 2, trunc=8, window=1)
    with pytest.raises(ValueError):
        xi(delta((0, 0)), 2, 2, trunc=2, window=4)
    # the rank is checked before the default symbolic mode is built, which
    # would refuse a negative r for a reason of its own
    for r in (-1, 0, 3):
        with pytest.raises(ValueError, match=r"need 1 <= r <= n"):
            xi(delta((0, 0)), 2, r, trunc=8)


def mk_result(poly, r, n=2, m=0):
    return XiResult(n, r, m, poly, True, unit_series(SymbolicMode(r)))


def test_fe_check_manual_cases():
    x = SymLaurent.monomial(1, (1,))
    assert not fe_check(mk_result(x, 1), mk_result(x, 1), EpsilonData(0, 1))
    # conductor 0 at level 2 supplies the compensating X^{-2}
    assert fe_check(mk_result(x, 1, m=2), mk_result(x, 1, m=2), EpsilonData(0, 1))
    minus_one = SymLaurent.constant(1, Fraction(-1))
    assert fe_check(
        mk_result(SymLaurent.one(1), 1), mk_result(minus_one, 1), EpsilonData(0, -1)
    )
    with pytest.raises(ValueError):
        fe_check(mk_result(x, 1), mk_result(SymLaurent.one(2), 2), EpsilonData(0, 1))
    with pytest.raises(ValueError):
        fe_check(mk_result(Fraction(1), 1), mk_result(Fraction(1), 1), EpsilonData(0, 1))
    # the two results must sit at the same level
    with pytest.raises(ValueError):
        fe_check(mk_result(x, 1), mk_result(x, 1, m=2), EpsilonData(0, 1))


def test_fe_check_spherical_rank_one():
    beta = (Fraction(3, 2),)
    d = spherical_so_data(beta, 1, 8)
    res = xi(d, 1, 1, beta=beta, trunc=8)
    assert fe_check(res, res, EpsilonData(0, 1))


def test_specialize_last_towers_down():
    d = spherical_so_data(BETA2, 2, 10)
    res22 = xi(d, 2, 2, beta=BETA2, trunc=10)
    dropped = specialize_last(res22)
    assert dropped.r == 1
    assert dropped.poly == SymLaurent.one(1)
    assert dropped.stabilized
    res21 = xi(d, 2, 1, beta=BETA2, trunc=10, mode=SymbolicMode(1))
    assert dropped.series.first_mismatch(res21.series, 10) is None
    ev = EvaluationMode(2, (Fraction(1), Fraction(2)), Fraction(2))
    res_ev = xi(d, 2, 2, beta=BETA2, mode=ev, trunc=8)
    with pytest.raises(ValueError):
        specialize_last(res_ev)


def test_specialize_last_kills_positive_last_exponents():
    poly = SymLaurent(2, {(1, 0): Q, (1, 1): ONE})
    series = TruncSeries({1: poly}, 6, SymLaurent.zero(2))
    res = XiResult(2, 2, 0, poly, True, series)
    dropped = specialize_last(res)
    assert dropped.poly == SymLaurent.monomial(1, (1,), Q)
    assert dropped.series.get(1) == SymLaurent.monomial(1, (1,), Q)


def test_specialize_last_keeps_a_stabilized_flag_at_a_short_window():
    # stabilized on a window of 3 below trunc 6; the Y^3 coefficient is in
    # X_1 only, so it survives X_2 = 0 and sits where a fixed 4-wide
    # re-check would look
    poly = SymLaurent.monomial(2, (3, 0))
    series = TruncSeries({3: poly}, 6, SymLaurent.zero(2))
    res = XiResult(2, 2, 0, poly, True, series)
    dropped = specialize_last(res)
    assert dropped.stabilized
    assert dropped.series.get(3) == SymLaurent.monomial(1, (3,))
    assert dropped.detected_degree == 3
    assert not specialize_last(XiResult(2, 2, 0, poly, False, series)).stabilized


def test_zeta_series_spherical_matches_geometric_oracle():
    beta = Fraction(2)
    d = spherical_so_data((beta,), 1, 8)
    z = zeta_series(d, 1, 8)
    factor = lambda b: TruncSeries(
        {0: ONE, 1: VLaurent({-1: -b})}, None, VLaurent.zero()
    )
    oracle = (factor(beta) * factor(1 / beta)).invert(8)
    assert z.first_mismatch(oracle, 8) is None


def test_zeta_series_matches_its_definition():
    # coefficient ell is d((ell, 0, ..)) v^(ell(2n-2)), through trunc, also
    # past the largest trace, for data with and without a tail
    rng = random.Random("zeta-definition")
    for n in (1, 2, 3):
        for _ in range(4):
            d = random_whittaker_data(rng, n, max_norm=3, max_entries=6)
            line = {(ell,) + (0,) * (n - 1): random_vlaurent(rng) for ell in rng.sample(range(4), 2)}
            for data in (d, WhittakerData(n, {**dict(d.items()), **line})):
                top = data.max_trace()
                for trunc in (0, top, top + 3):
                    z = zeta_series(data, n, trunc)
                    assert z.trunc == trunc
                    for ell in range(trunc + 1):
                        head = data.get((ell,) + (0,) * (n - 1))
                        assert z.get(ell) == head * VLaurent.v_power(ell * (2 * n - 2)), (n, ell)
                        assert type(z.get(ell)) is VLaurent
                    with pytest.raises(ValueError):
                        z.get(trunc + 1)


def test_zeta_endpoints_hold_for_arbitrary_data():
    d = WhittakerData(
        2,
        {
            (0, 0): ONE,
            (1, 0): Q,
            (2, 1): ONE + Q,
            (1, 1): VLaurent.v_power(-1),
            (3, 0): VLaurent({1: Fraction(2, 3)}),
        },
    )
    t = 6
    z = zeta_series(d, 2, t)
    z_theta = zeta_series(theta_data(d), 2, t)
    z_theta_prime = zeta_series(theta_prime_data(d), 2, t)
    assert z_theta.get(0) == VLaurent.zero()
    for ell in range(1, t + 1):
        assert z_theta.get(ell) == Q * z.get(ell - 1), ell
    for ell in range(t + 1):
        assert z_theta_prime.get(ell) == Q * z.get(ell), ell
    assert not zeta_series(eta_data(d), 2, t).coeffs


def test_kernel_check_samples():
    assert kernel_check(WhittakerData(2), 2, 1)
    assert kernel_check(delta((1, 1)), 2, 1)
    assert kernel_check(delta((1, 0)), 2, 1)
    assert kernel_check(delta((2, 2, 1), n=3), 3, 2)
    mixed = WhittakerData(2, {(1, 0): ONE, (1, 1): Q})
    assert kernel_check(mixed, 2, 1)


def test_xi_result_to_json_both_modes():
    d = spherical_so_data((Fraction(2),), 1, 6)
    res = xi(d, 1, 1, beta=(Fraction(2),), trunc=6)
    blob = res.to_json()
    assert isinstance(blob["poly"], list)
    assert blob["stabilized"] is True
    assert blob["n"] == 1 and blob["r"] == 1 and blob["m"] == 0
    ev = EvaluationMode(1, (Fraction(3),), Fraction(2))
    res_ev = xi(d, 1, 1, beta=(Fraction(2),), mode=ev, trunc=6)
    assert res_ev.to_json()["poly"] == "1/1"


# psi against the formula as first written (scan every weight of the data
# for each degree), on derandomized hypothesis examples (skipped where
# hypothesis is missing).


def _psi_oracle(d: WhittakerData, n: int, r: int, ell: int) -> SymLaurent:
    total = SymLaurent.zero(r)
    for lam, val in d.items():
        if sum(lam) != ell or any(lam[r:]):
            continue
        head = lam[:r]
        weight = sum(head[i] * (r - 1 - 2 * i) for i in range(r)) + ell * (2 * n - r - 1)
        total = total + SymLaurent.constant(r, val * VLaurent.v_power(weight)) * schur(head, r)
    return total


def _psi_inputs(st):
    """(d, n, r, trunc, point, v): data on up to five weights of sup norm
    <= 2 (so with nonzero tails whenever r < n), any r <= n, and trunc in
    0..2n, often below d.max_trace()."""
    nonzero = st.builds(
        Fraction,
        st.integers(min_value=1, max_value=7) | st.integers(min_value=-7, max_value=-1),
        st.sampled_from((1, 2, 3, 5)),
    )
    values = st.dictionaries(st.integers(min_value=-2, max_value=2), nonzero, min_size=1, max_size=2)

    @st.composite
    def draw(draw):
        n = draw(st.integers(min_value=1, max_value=3))
        r = draw(st.integers(min_value=1, max_value=n))
        cone = enumerate_cone(Cone.G, n, 2)
        support = draw(st.lists(st.sampled_from(cone), min_size=1, max_size=5, unique=True))
        d = WhittakerData(n, {lam: VLaurent(draw(values)) for lam in support})
        trunc = draw(st.integers(min_value=0, max_value=2 * n))
        point = tuple(draw(nonzero) for _ in range(r))
        return d, n, r, trunc, point, draw(nonzero)

    return draw()


def test_psi_matches_the_scan_every_weight_oracle():
    hyp = pytest.importorskip("hypothesis")
    settings = hyp.settings(max_examples=60, derandomize=True, deadline=None, database=None)

    @settings
    @hyp.given(_psi_inputs(hyp.strategies))
    def check(inputs):
        d, n, r, trunc, point, v = inputs
        want = [_psi_oracle(d, n, r, ell) for ell in range(trunc + 1)]
        sym = psi_series(d, n, r, trunc, SymbolicMode(r))
        ev = psi_series(d, n, r, trunc, EvaluationMode(r, point, v))
        assert sym.trunc == ev.trunc == trunc
        assert set(sym.coeffs) == {ell for ell, c in enumerate(want) if c}
        for ell, c in enumerate(want):
            assert psi_component(d, n, r, ell, SymbolicMode(r)) == c
            assert sym.get(ell) == c
            assert ev.get(ell) == c.evaluate(point, v)

    check()


# -- Schur coordinates of the torus sum -----------------------------------


def _expanded(coords: SymLaurent) -> dict[int, SymLaurent]:
    """sum c_nu s_nu for the Schur coordinates coords (keys nu + delta),
    by degree |nu|, through the Schur polynomials of ``characters``."""
    r = coords.r
    out: dict[int, SymLaurent] = {}
    for key, c in coords.c.items():
        nu = tuple(k - (r - 1 - i) for i, k in enumerate(key))
        out[sum(nu)] = out.get(sum(nu), SymLaurent.zero(r)) + schur(nu, r) * c
    return {ell: x for ell, x in out.items() if x}


def test_psi_alternant_expands_to_the_symbolic_series():
    rng = random.Random("psi-alternant")
    for n in range(1, 4):
        for r in range(1, n + 1):
            for _ in range(6):
                # sup norm 2 at every n: weights with a nonzero tail at r < n
                d = random_whittaker_data(rng, n, max_norm=2, max_entries=6)
                for trunc in sorted({0, 1, d.max_trace() - 1, d.max_trace() + 3} - {-1}):
                    coords = psi_alternant(d, n, r, trunc)
                    series = psi_series(d, n, r, trunc, SymbolicMode(r))
                    assert _expanded(coords) == series.coeffs, (d, r, trunc)
                    # every key is strictly decreasing
                    assert all(all(map(operator.gt, k, k[1:])) for k in coords.c)
    tail = WhittakerData(3, {(1, 1, 0): ONE, (2, 1, 1): Q})
    # (1, 1, 0) at r = 2: modulus exponent 0, twist 2 * 3; (2, 1, 1) has a tail
    assert psi_alternant(tail, 3, 2, 8) == SymLaurent(2, {(2, 1): VLaurent.v_power(6)})
    # at r = 3: (1, 1, 0) shifts by 2 + 2 * 2, (2, 1, 1) by 2 + 4 * 2, past trunc 3
    assert psi_alternant(tail, 3, 3, 3) == SymLaurent(3, {(3, 2, 0): VLaurent.v_power(6)})
    both = {(3, 2, 0): VLaurent.v_power(6), (4, 2, 1): VLaurent.v_power(12)}
    assert psi_alternant(tail, 3, 3, 4) == SymLaurent(3, both)
    assert not psi_alternant(tail, 3, 1, 8)
    with pytest.raises(ValueError):
        psi_alternant(tail, 3, 4, 8)
    with pytest.raises(ValueError):
        psi_alternant(tail, 2, 2, 8)


def test_moves_multiply_the_schur_coordinates_by_their_factors():
    # the identities the gsp4-raising and eta-lemma suites check, also at
    # n = 1 and 4 and at trunc 0, where the moved data pass trunc
    rng = random.Random("alternant-moves")
    moves = [(2, theta_data, theta_factor()), (2, theta_prime_data, theta_prime_factor())]
    moves += [(n, eta_data, depth_shift_factor(n)) for n in (1, 2, 3, 4)]
    for n, move, factor in moves:
        for _ in range(4):
            d = random_whittaker_data(rng, n, max_norm=2 if n < 3 else 1)
            for trunc in (0, 2, 3, 8):
                lhs = psi_alternant(move(d), n, n, trunc)
                assert lhs == rankin._times_coordinates(psi_alternant(d, n, n, trunc), factor, trunc)


def test_psi_alternant_builds_no_schur_polynomial_trace_index_or_view(monkeypatch):
    rng = random.Random("alternant-flat")
    data = [random_whittaker_data(rng, n) for n in (2, 3) for _ in range(3)]
    with monkeypatch.context() as patch:
        for cls in (SymLaurent, VLaurent):
            patch.setattr(cls, "c", property(_unreadable))
        patch.setattr(WhittakerData, "_trace_index", _unreadable)
        patch.setattr(characters, "schur", _unreadable)
        patch.setattr(rankin, "schur", _unreadable)
        got = []
        for d in data:
            n = d.n
            psi = psi_alternant(d, n, n, 6)
            got.append((psi, rankin._times_coordinates(psi, depth_shift_factor(n), 6)))
    for d, (psi, moved) in zip(data, got):
        n = d.n
        assert _expanded(psi) == psi_series(d, n, n, 6, SymbolicMode(n)).coeffs
        assert moved == psi_alternant(eta_data(d), n, n, 6)


def test_psi_alternant_refuses_an_exponent_past_the_field_limit():
    # at n = r = 2 the weight (1, 0) adds 2 to its v-exponents and has the
    # key (2, 0); the exact exponents decide, not a bound that ran ahead
    limit = rings._LIMIT
    top = VLaurent.v_power(limit)
    fits = WhittakerData(2, {(1, 0): VLaurent({limit - 2: 1, 0: 1})})
    assert psi_alternant(fits, 2, 2, 1) == SymLaurent(2, {(2, 0): top + VLaurent.v_power(2)})
    # d's bound is the limit, but every shifted exponent fits
    low = WhittakerData(2, {(1, 0): VLaurent.v_power(-limit)})
    assert psi_alternant(low, 2, 2, 1) == SymLaurent(2, {(2, 0): VLaurent.v_power(2 - limit)})
    past = {
        "v-exponent": WhittakerData(2, {(1, 0): VLaurent({limit - 1: 1, 0: 1})}),
        "X-exponent": WhittakerData(2, {(limit, 0): ONE}),
    }
    for name, d in past.items():
        with pytest.raises(OverflowError):
            psi_alternant(d, 2, 2, limit)
            pytest.fail(f"a {name} past the field limit was returned")
