"""Dominant cones, enumeration, and the oldform dimension count."""

from __future__ import annotations

import itertools

import pytest

from paramodular.coweights import (
    Cone,
    basis_cardinality,
    dim_formula,
    enumerate_cone,
    is_dominant,
    sup_norm,
    tilde,
    trace,
)


def test_basic_coweight_helpers():
    assert sup_norm((2, -3, 1)) == 3
    assert trace((2, -3, 1)) == 0
    assert tilde((2, 1, 1)) == (2, 1, -1)
    assert tilde(tilde((2, 1, 1))) == (2, 1, 1)
    with pytest.raises(ValueError):
        tilde(())


def test_dominance_three_cones():
    assert is_dominant((3, 1), Cone.GL)
    assert is_dominant((3, -1), Cone.GL)
    assert not is_dominant((1, 3), Cone.GL)

    assert is_dominant((2, 0), Cone.G)
    assert not is_dominant((2, -1), Cone.G)

    # last entry may be negative with absolute value below the previous one
    assert is_dominant((2, -1), Cone.H)
    assert is_dominant((2, -2), Cone.H)
    assert not is_dominant((2, -3), Cone.H)
    assert not is_dominant((1, 2), Cone.H)


def test_enumerate_cone_counts_rank_two():
    g = enumerate_cone(Cone.G, 2, 1)
    assert g == [(0, 0), (1, 0), (1, 1)]
    h = enumerate_cone(Cone.H, 2, 1)
    assert h == [(0, 0), (1, -1), (1, 0), (1, 1)]
    gl = enumerate_cone(Cone.GL, 2, 1)
    assert len(gl) == 6  # all weakly decreasing pairs with entries in [-1, 1]


def test_enumerate_cone_is_sorted_and_dominant():
    for cone in Cone:
        items = enumerate_cone(cone, 3, 2)
        assert items == sorted(items)
        assert all(is_dominant(lam, cone) for lam in items)
        assert all(sup_norm(lam) <= 2 for lam in items)
    with pytest.raises(ValueError):
        enumerate_cone(Cone.G, 0, 3)


def test_enumerate_cone_matches_the_box_oracle():
    # oracle: filter the whole box of integer tuples by cone and trace
    for cone in Cone:
        for n in range(1, 5):
            for bound in range(-1, 6):
                box = itertools.product(range(-bound, bound + 1), repeat=n)
                cone_part = sorted(lam for lam in box if is_dominant(lam, cone))
                assert enumerate_cone(cone, n, bound) == cone_part, (cone, n, bound)
                for max_trace in [None, *range(-2, n * bound + 1)]:
                    got = enumerate_cone(cone, n, bound, max_trace=max_trace)
                    if max_trace is None:
                        want = cone_part
                    else:
                        want = [lam for lam in cone_part if trace(lam) <= max_trace]
                    assert got == want, (cone, n, bound, max_trace)
    # the partitions of 2 into at most two parts, from the G cone cut by trace
    assert enumerate_cone(Cone.G, 2, 2, max_trace=2) == [(0, 0), (1, 0), (1, 1), (2, 0)]


def _recursive_cone(cone, n, bound, max_trace=None):
    """The recursive enumeration that ``enumerate_cone`` replaced, one
    generator frame per entry, kept as the oracle of its order: the
    sampled Whittaker data, and so every report fingerprint, depend on it."""
    lo = 0 if cone is Cone.G else -bound

    def tails(k, cap, budget):
        if k == 0:
            yield ()
            return
        for first in range(lo, min(cap, budget - (k - 1) * lo) + 1):
            for rest in tails(k - 1, first, budget - first):
                yield (first, *rest)

    out = tails(n, bound, n * bound if max_trace is None else max_trace)
    return [lam for lam in out if cone is not Cone.H or is_dominant(lam, cone)]


def test_enumerate_cone_keeps_the_recursive_order():
    for cone in Cone:
        for n in range(1, 5):
            for bound in range(6):
                for max_trace in [None, *range(9)]:
                    want = _recursive_cone(cone, n, bound, max_trace)
                    assert enumerate_cone(cone, n, bound, max_trace) == want, (cone, n, bound, max_trace)


def test_dim_formula_frozen_values():
    # level gap 0 and 1 are one- and two-dimensional for every rank
    for n in range(1, 5):
        assert dim_formula(n, 5, 5) == 1
        assert dim_formula(n, 6, 5) == 2
    assert dim_formula(2, 2, 0) == 4
    assert dim_formula(2, 3, 0) == 6
    assert dim_formula(2, 4, 0) == 9
    assert dim_formula(3, 2, 0) == 5
    assert dim_formula(3, 4, 0) == 14
    # below the conductor there are no fixed vectors
    assert dim_formula(2, 3, 4) == 0


def test_basis_cardinality_even_gap_counts_h_cone():
    assert basis_cardinality(2, 2, 0) == len(
        [lam for lam in enumerate_cone(Cone.H, 2, 1)]
    )
    assert basis_cardinality(3, 2, 0) == 5
    assert basis_cardinality(3, 4, 0) == 14


def test_basis_cardinality_odd_gap_doubles_g_cone():
    assert basis_cardinality(2, 3, 0) == 2 * len(enumerate_cone(Cone.G, 2, 1))
    assert basis_cardinality(2, 5, 0) == 2 * len(enumerate_cone(Cone.G, 2, 2))


def test_formula_matches_enumeration_sweep():
    for n in range(1, 5):
        for gap in range(9):
            assert dim_formula(n, gap, 0) == basis_cardinality(n, gap, 0), (n, gap)
