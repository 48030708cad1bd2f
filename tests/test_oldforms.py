"""Oldform family images, exact ranks, and the family comparison report."""

from __future__ import annotations

from fractions import Fraction

import pytest

from paramodular.coweights import Cone, basis_cardinality, enumerate_cone, tilde
from paramodular.oldforms import (
    BasisElementSpec,
    XiImage,
    basis_specs,
    bprime_images,
    compare_bases,
    dependence_check_a3,
    dependence_sides,
    rank_check,
    rs_specs,
    satake_image,
    so4_satake_table,
    xi_image,
)
from paramodular.rings import SymLaurent, VLaurent, vlaurent_div_exact

ONE = VLaurent.one()
Q = VLaurent.q_power(1)
E1 = SymLaurent(2, {(1, 0): Q, (0, 1): Q})  # q(X1 + X2)
E2 = SymLaurent(2, {(0, 0): Q, (1, 1): Q})  # q(1 + X1 X2)
SHIFT = SymLaurent.monomial(2, (1, 1), Q)  # q X1 X2


def test_so4_satake_table_frozen():
    table = so4_satake_table()
    assert set(table) == {(0, 0), (1, 0), (1, 1), (1, -1)}
    assert table[(0, 0)] == SymLaurent.one(2)
    assert table[(1, 0)] == SymLaurent(
        2, {(1, 0): Q, (0, 1): Q, (-1, 0): Q, (0, -1): Q}
    )
    assert table[(1, 1)] == SymLaurent(2, {(1, 1): Q, (0, 0): Q, (-1, -1): Q})
    assert table[(1, -1)] == SymLaurent(2, {(1, -1): Q, (0, 0): Q, (-1, 1): Q})


def test_satake_image_flags_stand_ins():
    exact, flagged = satake_image((1, 0), 2)
    assert not flagged
    assert exact == so4_satake_table()[(1, 0)]
    approx, flagged = satake_image((2, 0), 2)
    assert flagged
    q2 = VLaurent.q_power(2)
    assert approx == SymLaurent(
        2, {(2, 0): q2, (0, 2): q2, (-2, 0): q2, (0, -2): q2}
    )


def test_basis_element_spec_validation():
    with pytest.raises(ValueError):
        BasisElementSpec("eta_lambda", 1, 2, (0, 0))  # odd gap
    with pytest.raises(ValueError):
        BasisElementSpec("eta_lambda", 2, 2, (0, 1))  # not dominant
    with pytest.raises(ValueError):
        BasisElementSpec("eta_lambda", 2, 2, (2, 0))  # sup norm too big
    with pytest.raises(ValueError):
        BasisElementSpec("eta_square_theta", 2, 2, (0, 0))  # even gap
    with pytest.raises(ValueError):
        BasisElementSpec("eta_square_theta", 3, 2, (1, -1))  # wrong cone
    with pytest.raises(ValueError):
        BasisElementSpec("rs_monomial", 3, 2, counts=(1, 1, 1))  # 1+1+2 != 3
    with pytest.raises(ValueError):
        BasisElementSpec("rs_monomial", 2, 2, lam=(1, 0))
    with pytest.raises(ValueError):
        BasisElementSpec("eta_lambda", 2, 2, counts=(0, 0, 1))
    with pytest.raises(ValueError):
        BasisElementSpec("mystery", 2, 2, (0, 0))
    # even-cone element with a negative entry is accepted
    spec = BasisElementSpec("eta_lambda", 2, 2, (1, -1))
    assert spec.label() == "eta[1,-1]"
    assert BasisElementSpec("rs_monomial", 4, 2, counts=(1, 1, 1)).label() == (
        "rs[i=1,j=1,k=1]"
    )
    assert BasisElementSpec("eta_square_theta", 1, 2, (0, 0)).label() == (
        "eta_sq*theta[0,0]"
    )


def test_family_sizes_match_dimension_formula():
    for n in (2, 3):
        for gap in range(7):
            assert len(basis_specs(n, gap)) == basis_cardinality(n, gap, 0), (n, gap)


def test_rs_specs_enumeration():
    assert len(rs_specs(0)) == 1
    assert len(rs_specs(1)) == 2
    assert len(rs_specs(2)) == 4
    assert len(rs_specs(3)) == 6
    for gap in range(7):
        assert len(rs_specs(gap)) == basis_cardinality(2, gap, 0), gap
        for spec in rs_specs(gap):
            i, j, k = spec.counts
            assert i + j + 2 * k == gap


def test_xi_image_frozen_examples():
    shift = xi_image(BasisElementSpec("rs_monomial", 2, 2, counts=(0, 0, 1)))
    assert shift.poly == SHIFT and not shift.stand_in
    both_steps = xi_image(BasisElementSpec("rs_monomial", 2, 2, counts=(1, 1, 0)))
    assert both_steps.poly == E1 * E2
    eta11 = xi_image(BasisElementSpec("eta_lambda", 2, 2, (1, 1)))
    q2 = VLaurent.q_power(2)
    assert eta11.poly == SymLaurent(2, {(2, 2): q2, (1, 1): q2, (0, 0): q2})
    assert not eta11.stand_in
    deep = xi_image(BasisElementSpec("eta_lambda", 4, 2, (2, 0)))
    assert deep.stand_in


def test_gap_one_images_are_the_two_raising_steps():
    images = [xi_image(s) for s in basis_specs(2, 1)]
    assert {str(im.poly) for im in images} == {str(E1), str(E2)}
    assert not any(im.stand_in for im in images)
    assert {im.label for im in images} == {"eta_sq*theta[0,0]", "eta_sq*theta'[0,0]"}


def test_xi_image_rank_mismatch():
    spec = BasisElementSpec("rs_monomial", 2, 3, counts=(0, 0, 1))
    # the rank is the spec's own, and raising words exist only at n = 2
    with pytest.raises(ValueError):
        xi_image(spec)


def test_dependence_relation_exact():
    lhs, rhs = dependence_sides()
    assert lhs == rhs
    assert lhs == SymLaurent.monomial(2, (0, 0), VLaurent.q_power(3)) * (
        SymLaurent(2, {(1, 0): ONE, (0, 1): ONE})
        * SymLaurent(2, {(0, 0): ONE, (1, 1): ONE}) ** 2
    )
    assert dependence_check_a3()


def test_rank_check_small_cases():
    e1 = SymLaurent(2, {(1, 0): ONE, (0, 1): ONE})
    assert rank_check([]) == (0, True)
    assert rank_check([SymLaurent.one(2), e1]) == (2, True)
    assert rank_check([e1, e1 * 2]) == (1, False)
    assert rank_check([SymLaurent.zero(2)]) == (0, False)


def _bareiss_rank(images: list[SymLaurent]) -> tuple[int, bool]:
    """Independent oracle for rank_check: fraction-free (Bareiss)
    elimination on the coefficient matrix over Q[v, v^-1], a domain, so
    every Bareiss division is exact."""
    if not images:
        return 0, True
    cols = sorted(set().union(*(set(p.c) for p in images)))
    mat = [[p.c.get(col, VLaurent.zero()) for col in cols] for p in images]
    n_rows, n_cols = len(mat), len(cols)
    prev = VLaurent.one()
    row = 0
    for col in range(n_cols):
        if row == n_rows:
            break
        pivot = next((i for i in range(row, n_rows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for i in range(row + 1, n_rows):
            for j in range(col + 1, n_cols):
                num = mat[row][col] * mat[i][j] - mat[i][col] * mat[row][j]
                mat[i][j] = vlaurent_div_exact(num, prev)
            mat[i][col] = VLaurent.zero()
        prev = mat[row][col]
        row += 1
    return row, row == len(images)


def _polys(specs) -> list[SymLaurent]:
    return [xi_image(s).poly for s in specs]


def _oracle_families():
    for gap in range(9):
        yield f"orbit-paired n=2 gap={gap}", _polys(basis_specs(2, gap))
        yield f"raising words gap={gap}", _polys(rs_specs(gap))
    for gap in range(5):
        yield f"union gap={gap}", _polys(basis_specs(2, gap)) + _polys(rs_specs(gap))
    for gap in (3, 5):
        yield f"unpaired gap={gap}", [im.poly for im in bprime_images(gap)]
    for gap in (0, 2, 4, 6):
        yield f"orbit-paired n=3 gap={gap}", _polys(basis_specs(3, gap))


def test_rank_check_agrees_with_the_bareiss_oracle():
    verdicts = {}
    for name, polys in _oracle_families():
        verdicts[name] = rank_check(polys)
        assert verdicts[name] == _bareiss_rank(polys), name
    # the deficient families, whose rank needs the degree bound
    assert verdicts["union gap=4"] == (9, False)
    assert verdicts["unpaired gap=5"][1] is False


def test_rank_check_steps_past_points_where_the_rank_drops():
    # rows (1, v) and (v, 5v - 6): determinant -(v - 2)(v - 3), so the
    # first two points (v = 2, 3) have rank 1 and v = 4 has rank 2
    v = VLaurent.v_power(1)
    rows = [(VLaurent.one(), v), (v, 5 * v - 6)]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert [det.evaluate(k) for k in (2, 3)] == [0, 0] and det.evaluate(4)
    images = [SymLaurent(2, {(1, 0): a, (0, 1): b}) for a, b in rows]
    assert rank_check(images) == (2, True) == _bareiss_rank(images)
    # a multiple of a row that vanishes at the first point stays dependent
    dependent = [images[0], images[0] * (v - 2)]
    assert rank_check(dependent) == (1, False) == _bareiss_rank(dependent)


def _hypothesis():
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.strategies, hyp.settings(
        max_examples=50, derandomize=True, deadline=None, database=None
    )


def test_rank_check_matches_the_oracle_on_planted_dependencies():
    hyp, st, settings = _hypothesis()
    coeff = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])
    vlaurent = st.dictionaries(
        st.integers(min_value=-2, max_value=2), coeff, max_size=3
    ).map(VLaurent)
    monomial = st.tuples(*[st.integers(min_value=-1, max_value=1)] * 2)
    image = st.dictionaries(monomial, vlaurent, max_size=4).map(
        lambda c: SymLaurent(2, c)
    )

    @settings
    @hyp.given(
        st.lists(image, min_size=1, max_size=4),
        st.lists(st.lists(vlaurent, min_size=4, max_size=4), max_size=3),
        st.randoms(use_true_random=False),
    )
    def check(base, combos, rnd):
        planted = [
            sum((row * c for row, c in zip(base, combo)), SymLaurent.zero(2))
            for combo in combos
        ]
        images = base + planted
        rnd.shuffle(images)
        rank, independent = rank_check(images)
        assert (rank, independent) == _bareiss_rank(images)
        assert independent == (rank == len(images))
        assert rank <= len(base)

    check()


def test_rank_check_at_rank_three_gaps_six_and_eight():
    for gap, size in ((6, 30), (8, 55)):
        assert basis_cardinality(3, gap, 0) == size
        assert rank_check(_polys(basis_specs(3, gap))) == (size, True)


def test_unpaired_family_is_dependent_at_gap_three():
    images = bprime_images(3)
    assert len(images) == 6
    rank, independent = rank_check([im.poly for im in images])
    assert (rank, independent) == (5, False)
    with pytest.raises(ValueError):
        bprime_images(2)


def test_compare_bases_trivial_gaps():
    flat = compare_bases(0)
    assert flat["sets_equal"] and flat["spans_equal"]
    assert flat["b_rank"] == flat["rs_rank"] == flat["union_rank"] == 1
    assert not flat["conditional"]
    one_up = compare_bases(1)
    assert one_up["sets_equal"] and one_up["spans_equal"]
    assert one_up["b_rank"] == 2 and one_up["b_independent"]


def test_compare_bases_gap_two_report():
    report = compare_bases(2)
    assert report["b_rank"] == 4
    assert report["rs_rank"] == 4
    assert report["union_rank"] == 4
    assert report["b_independent"] and report["rs_independent"]
    assert not report["sets_equal"]
    assert report["spans_equal"]
    assert not report["conditional"]
    assert report["b_only"] and report["rs_only"]
    with pytest.raises(ValueError):
        compare_bases(5)


def test_compare_bases_gap_four_is_conditional():
    report = compare_bases(4)
    assert report["b_rank"] == report["rs_rank"] == report["union_rank"] == 9
    assert report["spans_equal"]
    assert report["conditional"]


def test_xi_image_json_shape():
    im = xi_image(BasisElementSpec("eta_lambda", 0, 2, (0, 0)))
    blob = im.to_json()
    assert set(blob) == {"label", "stand_in", "poly"}
    assert blob["label"] == "eta[0,0]"
    assert blob["stand_in"] is False
    assert isinstance(blob["poly"], list)


def _eta(n: int) -> SymLaurent:
    return SymLaurent.monomial(n, (1,) * n, VLaurent.q_power(n * (n - 1) // 2))


def _expected_image(spec: BasisElementSpec) -> tuple[SymLaurent, bool]:
    """The image of spec from the hard-coded move factors: q(X1 + X2) for
    theta, q(1 + X1 X2) for theta', q^{n(n-1)/2} X1...Xn for eta."""
    if spec.kind == "rs_monomial":
        i, j, k = spec.counts
        return E2**i * E1**j * SHIFT**k, False
    if spec.kind == "eta_lambda":
        hecke, stand_in = satake_image(spec.lam, spec.n)
        return _eta(spec.n) ** (spec.gap // 2) * hecke, stand_in
    hecke, stand_in = satake_image(spec.lam, 2)
    if tilde(spec.lam) != spec.lam:
        extra, extra_stand_in = satake_image(tilde(spec.lam), 2)
        hecke, stand_in = hecke + extra, stand_in or extra_stand_in
    step = E1 if spec.kind == "eta_square_theta" else E2
    return SHIFT ** ((spec.gap - 1) // 2) * hecke * step, stand_in


def test_images_are_words_in_the_hard_coded_move_factors():
    specs = [s for g in range(7) for s in basis_specs(2, g) + rs_specs(g)]
    specs += [s for g in (0, 2, 4) for s in basis_specs(3, g)]
    for spec in specs:
        image = xi_image(spec)
        assert (image.poly, image.stand_in) == _expected_image(spec), spec.label()
        assert image.label == spec.label()
    for gap in (1, 3, 5):
        expected = []
        for lam in enumerate_cone(Cone.G, 2, (gap - 1) // 2):
            hecke, stand_in = satake_image(lam, 2)
            base = SHIFT ** ((gap - 1) // 2) * hecke
            text = ",".join(map(str, lam))
            expected.append((f"eta*theta[{text}]", base * E1, stand_in))
            expected.append((f"eta*theta'[{text}]", base * E2, stand_in))
        assert [(im.label, im.poly, im.stand_in) for im in bprime_images(gap)] == expected
    lhs, rhs = dependence_sides()
    assert lhs == SHIFT * satake_image((1, 0), 2)[0] * E2
    assert rhs == SHIFT * E1 * Q + SHIFT * satake_image((1, 1), 2)[0] * E1
