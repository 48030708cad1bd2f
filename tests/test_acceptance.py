"""Acceptance gate: ten exact end-to-end checks.

Each test prints one summary line; all comparisons are exact (Fraction
arithmetic, zero tolerance).  Runtime bounds are generous ceilings meant to
catch complexity regressions, not tight benchmarks.
"""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction

from paramodular.characters import (
    schur,
    schur_oracle,
    sp_character,
    sp_dimension,
)
from paramodular.cli import VerifyConfig, run_suite
from paramodular.coweights import Cone, basis_cardinality, dim_formula, enumerate_cone
from paramodular.oldforms import (
    BasisElementSpec,
    basis_specs,
    bprime_images,
    compare_bases,
    dependence_check_a3,
    rank_check,
    rs_specs,
    satake_image,
    so4_satake_table,
    xi_image,
)
from paramodular.rankin import (
    EvaluationMode,
    SymbolicMode,
    kernel_check,
    psi_component,
    xi,
)
from paramodular.rings import (
    SymLaurent,
    TruncSeries,
    VLaurent,
    poly_div_exact,
)
from paramodular.sampling import (
    case_rng,
    random_beta,
    random_point,
    random_v,
    random_whittaker_data,
)
from paramodular.whittaker import (
    eta_data,
    gl_whittaker,
    spherical_so_data,
    theta_data,
    theta_prime_data,
)

from laurent_oracles import is_homogeneous, is_in_s0, min_var_exp

BETA2 = (Fraction(2), Fraction(3, 2))
Q1 = VLaurent.q_power(1)
Q2 = VLaurent.q_power(2)


def run_clean(suite: str, **kwargs) -> tuple:
    report = run_suite(VerifyConfig(suite=suite, **kwargs))
    failures = [
        {"case": c.case, "witness": c.witness} for c in report.cases if not c.verdict
    ]
    return report, failures


def test_acceptance_01_unramified_series_collapses_to_one():
    start = time.perf_counter()
    report, failures = run_clean("unramified")
    elapsed = time.perf_counter() - start
    assert not failures, failures
    # 20 parameter draws for each of the six (n, r) pairs with n <= 3
    assert len(report.cases) == 120
    assert elapsed < 60, elapsed
    print(
        f"ACCEPTANCE 1: PASS — unramified normalized series equals 1 in "
        f"{len(report.cases)} evaluations ({elapsed:.1f}s)"
    )


def test_acceptance_02_dimension_formula_matches_enumeration():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        for gap in range(9):
            assert dim_formula(n, gap, 0) == basis_cardinality(n, gap, 0), (n, gap)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 36
    assert elapsed < 1, elapsed
    print(
        f"ACCEPTANCE 2: PASS — closed-form dimension equals family size in "
        f"{checked} cases ({elapsed:.2f}s)"
    )


def test_acceptance_03_rank_two_raising_recursions():
    start = time.perf_counter()
    report, failures = run_clean("gsp4-raising")
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert len(report.cases) == 300  # 100 data draws x 3 operators
    assert elapsed < 30, elapsed
    print(
        f"ACCEPTANCE 3: PASS — raising operators act on the torus sum by "
        f"their series factors in {len(report.cases)} cases ({elapsed:.1f}s)"
    )


def test_acceptance_04_rank_three_depth_shift():
    start = time.perf_counter()
    report, failures = run_clean("eta-lemma")
    assert not failures, failures
    assert len(report.cases) == 50
    # the torus-sum identity lifts to the normalized series because both
    # normalizing factors are independent of the data; spot-check that too
    for t in range(3):
        rng = case_rng(9, f"acceptance-eta:{t}")
        beta = random_beta(rng, 3)
        d = random_whittaker_data(rng, 3, max_norm=1)
        point = random_point(rng, 3)
        v = random_v(rng)
        mode = EvaluationMode(3, point, v)
        lhs = xi(eta_data(d), 3, 3, beta=beta, mode=mode, trunc=8).series
        prod = Fraction(1)
        for x in point:
            prod *= x
        factor = v**6 * prod  # q^3 * X1 X2 X3 at the sample point
        rhs = xi(d, 3, 3, beta=beta, mode=mode, trunc=8).series * TruncSeries(
            {3: factor}, None, Fraction(0)
        )
        assert lhs.first_mismatch(rhs, 8) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 60, elapsed
    print(
        f"ACCEPTANCE 4: PASS — depth shift scales the rank-3 normalized "
        f"series by the cubic monomial ({elapsed:.1f}s)"
    )


def test_acceptance_05_first_raised_level_images():
    report, failures = run_clean("level-a1")
    assert not failures, failures
    d = spherical_so_data(BETA2, 2, 12)
    res_t = xi(theta_data(d), 2, 2, beta=BETA2, trunc=10, level=1)
    res_tp = xi(theta_prime_data(d), 2, 2, beta=BETA2, trunc=10, level=1)
    assert res_t.poly == SymLaurent(2, {(1, 0): Q1, (0, 1): Q1})
    assert res_tp.poly == SymLaurent(2, {(0, 0): Q1, (1, 1): Q1})
    # the two images share the same scalar in front
    assert res_t.poly.c[(1, 0)] == res_tp.poly.c[(0, 0)]
    print(
        "ACCEPTANCE 5: PASS — degree-one raises of the base vector map to "
        "q*(X1+X2) and q*(1+X1X2)"
    )


def test_acceptance_06_specialization_tower_and_rank_one_endpoint():
    report, failures = run_clean("prop4")
    assert not failures, failures
    kinds = {c.parameters["check"] for c in report.cases}
    assert {"specialize", "zeta-theta", "zeta-theta-prime", "zeta-eta"} <= kinds
    print(
        "ACCEPTANCE 6: PASS — dropping the last variable lowers the series "
        "rank by one, with the rank-one endpoints scaling as qY, q, and 0"
    )


def test_acceptance_07_dependence_relation_and_family_ranks():
    assert dependence_check_a3()
    images = bprime_images(3)
    rank, independent = rank_check([im.poly for im in images])
    assert rank == 5 and len(images) == 6 and not independent
    for gap in range(5):
        polys = [xi_image(s).poly for s in basis_specs(2, gap)]
        rank, independent = rank_check(polys)
        assert independent and rank == len(polys) == basis_cardinality(2, gap, 0)
    print(
        "ACCEPTANCE 7: PASS — the unpaired family drops rank (5 of 6) while "
        "the orbit-paired family stays independent through gap 4"
    )


def canonical(poly: SymLaurent) -> str:
    return json.dumps(poly.to_json(), sort_keys=True)


def test_acceptance_08_family_comparison_at_gap_two():
    rep = compare_bases(2)
    paired_expected = [
        SymLaurent(2, {(1, 1): Q1}),
        SymLaurent(2, {(1, 0): Q2, (0, 1): Q2, (2, 1): Q2, (1, 2): Q2}),
        SymLaurent(2, {(0, 0): Q2, (1, 1): Q2, (2, 2): Q2}),
        SymLaurent(2, {(2, 0): Q2, (1, 1): Q2, (0, 2): Q2}),
    ]
    words_expected = [
        SymLaurent(2, {(1, 1): Q1}),
        SymLaurent(2, {(1, 0): Q2, (0, 1): Q2, (2, 1): Q2, (1, 2): Q2}),
        SymLaurent(2, {(0, 0): Q2, (1, 1): Q2 * 2, (2, 2): Q2}),
        SymLaurent(2, {(2, 0): Q2, (1, 1): Q2 * 2, (0, 2): Q2}),
    ]
    got_paired = sorted(
        json.dumps(im["poly"], sort_keys=True) for im in rep["b_images"]
    )
    got_words = sorted(
        json.dumps(im["poly"], sort_keys=True) for im in rep["rs_images"]
    )
    assert got_paired == sorted(canonical(p) for p in paired_expected)
    assert got_words == sorted(canonical(p) for p in words_expected)
    assert not rep["sets_equal"]
    assert rep["spans_equal"]
    assert rep["b_rank"] == rep["rs_rank"] == rep["union_rank"] == 4
    print(
        "ACCEPTANCE 8: PASS — gap-2 image quadruples byte-match their frozen "
        "values; the two families differ as sets but span the same lattice"
    )


def test_acceptance_09_character_oracles():
    checked = 0
    for r in range(1, 5):
        for lam in itertools.product(range(3, -1, -1), repeat=r):
            if any(lam[i] < lam[i + 1] for i in range(r - 1)):
                continue
            assert schur(lam, r) == schur_oracle(lam, r), lam
            checked += 1
    assert checked == 69
    for n in (1, 2, 3):
        ones = (Fraction(1),) * n
        for lam in enumerate_cone(Cone.G, n, 3):
            chi = sp_character(lam, n)  # raises if the Weyl division is inexact
            assert chi.evaluate(ones, Fraction(1)) == sp_dimension(lam, n), lam
    for gap in range(7):
        for low in (-1, 0, 2):
            lam = (low + gap, low)
            num = SymLaurent.monomial(2, (lam[0] + 1, lam[1])) - SymLaurent.monomial(
                2, (lam[1], lam[0] + 1)
            )
            den = SymLaurent.monomial(2, (1, 0)) - SymLaurent.monomial(2, (0, 1))
            closed = SymLaurent.constant(2, VLaurent.v_power(-gap)) * poly_div_exact(
                num, den
            )
            assert gl_whittaker(lam, 2) == closed, lam
    print(
        "ACCEPTANCE 9: PASS — determinant and tableau Schur forms agree, "
        "symplectic characters divide exactly and hit Weyl dimensions, and "
        "the rank-two Whittaker closed form matches"
    )


def test_acceptance_10_structural_properties():
    # homogeneity of the torus-sum components
    sym2, sym3 = SymbolicMode(2), SymbolicMode(3)
    sph = spherical_so_data(BETA2, 2, 4)
    for ell in range(5):
        assert is_homogeneous(psi_component(sph, 2, 2, ell, sym2), ell)
    rng = case_rng(11, "acceptance-homogeneity")
    for _ in range(5):
        d2 = random_whittaker_data(rng, 2)
        d3 = random_whittaker_data(rng, 3, max_norm=1)
        for ell in range(5):
            assert is_homogeneous(psi_component(d2, 2, 2, ell, sym2), ell)
            assert is_homogeneous(psi_component(d3, 3, 3, ell, sym3), ell)

    # Hecke images land in, and multiply within, the invariant subring
    table = so4_satake_table()
    for value in table.values():
        assert is_in_s0(value)
    for lam in [(2, 0), (2, 1), (2, 2), (2, -1), (3, 1)]:
        assert is_in_s0(satake_image(lam, 2)[0]), lam
    for a, b in itertools.combinations_with_replacement(sorted(table), 2):
        assert is_in_s0(table[a] * table[b])

    # palindromic coefficients with ratio +-1 on the raised eigenvectors
    d = spherical_so_data(BETA2, 2, 12)
    plus = theta_data(d) + theta_prime_data(d)
    minus = theta_data(d) - theta_prime_data(d)
    for data, ratio in ((plus, 1), (minus, -1)):
        poly = xi(data, 2, 2, beta=BETA2, trunc=10, level=1).poly
        assert set(poly.c) <= {(0, 0), (1, 0), (0, 1), (1, 1)}
        b0 = poly.c[(0, 0)]
        assert poly.c[(1, 0)] == poly.c[(0, 1)] == b0 * ratio
        assert poly.c[(1, 1)] == b0 * ratio * ratio
    report, failures = run_clean("fe", trials=2)
    assert not failures, failures

    # the family images never dip into negative exponents
    for gap in range(5):
        for spec in basis_specs(2, gap) + rs_specs(gap):
            assert min_var_exp(xi_image(spec).poly) >= 0, spec.label()

    # vanishing of the series is equivalent to vanishing on the torus slice
    rng = case_rng(11, "acceptance-kernel")
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        r = rng.randint(1, n)
        d = random_whittaker_data(rng, n, max_norm=2, max_entries=3)
        assert kernel_check(d, n, r)
    print(
        "ACCEPTANCE 10: PASS — homogeneity, invariant-subring closure, "
        "palindromicity, grading positivity, and the kernel criterion all "
        "hold exactly"
    )
