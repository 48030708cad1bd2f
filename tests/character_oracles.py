"""Determinant oracles for the characters, used by the tests only.

``paramodular.characters`` builds symbolic characters by Demazure
operators, with no division, and takes numeric determinants by Bareiss
elimination.  The oracles here take other routes, through Leibniz
determinants and generic exact division: symbolic Jacobi-Trudi and the
bialternant for Schur polynomials, the full Weyl alternant ratio for
symplectic characters, each Demazure operator by its defining quotient,
and an integer Leibniz expansion for numeric determinants.
"""

from __future__ import annotations

import functools
import itertools
import math

from paramodular.rings import SymLaurent, poly_div_exact


@functools.cache
def complete_homogeneous(r: int, m: int) -> SymLaurent:
    """h_m(X_1..X_r): sum of all degree-m monomials."""
    if m < 0:
        return SymLaurent.zero(r)
    coeffs = {}
    for split in itertools.combinations_with_replacement(range(r), m):
        e = [0] * r
        for i in split:
            e[i] += 1
        coeffs[tuple(e)] = 1
    return SymLaurent(r, coeffs)


def odd_permutation(perm: tuple[int, ...]) -> bool:
    """Whether perm has an odd number of inversions."""
    k = len(perm)
    return sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k)) % 2 == 1


def leibniz_int_det(entries: list[list[int]]) -> int:
    """Leibniz determinant of a square integer matrix, each sign read from
    the permutation's inversion count."""
    total = 0
    for perm in itertools.permutations(range(len(entries))):
        prod = math.prod(row[j] for row, j in zip(entries, perm))
        total += -prod if odd_permutation(perm) else prod
    return total


def leibniz_det(entries: list[list[SymLaurent]], r: int) -> SymLaurent:
    """Leibniz determinant of a square matrix of SymLaurents in r
    variables, skipping terms with a zero factor."""
    k = len(entries)
    total = SymLaurent.zero(r)
    for perm in itertools.permutations(range(k)):
        factors = [row[j] for row, j in zip(entries, perm)]
        if not all(factors):
            continue
        prod = SymLaurent.one(r)
        for x in factors:
            prod = prod * x
        total = total - prod if odd_permutation(perm) else total + prod
    return total


def jacobi_trudi_schur(lam: tuple[int, ...], r: int) -> SymLaurent:
    """s_lam = det(h_{lam_i - i + j}), after the twist s_lam =
    (X_1...X_r)^lam_r s_{lam - lam_r} for a negative last entry."""
    shift = min(lam[-1], 0)
    core = [x - shift for x in lam]
    matrix = [[complete_homogeneous(r, core[i] - i + j) for j in range(r)] for i in range(r)]
    return leibniz_det(matrix, r) * SymLaurent.monomial(r, (shift,) * r)


def _power(r: int, j: int, e: int) -> SymLaurent:
    """X_j^e in r variables."""
    return SymLaurent.monomial(r, [e if k == j else 0 for k in range(r)])


def gl_alternant(exps: list[int], r: int) -> SymLaurent:
    """det(X_j^{exps_i})."""
    return leibniz_det([[_power(r, j, e) for j in range(r)] for e in exps], r)


def sp_alternant(exps: list[int], n: int) -> SymLaurent:
    """det(x_j^{exps_i} - x_j^{-exps_i})."""
    entries = [[_power(n, j, e) - _power(n, j, -e) for j in range(n)] for e in exps]
    return leibniz_det(entries, n)


def sp_character_by_division(lam: tuple[int, ...], n: int) -> SymLaurent:
    """The Weyl ratio det(x_j^{l_i + n - i + 1} - ...) / det(x_j^{n - i + 1}
    - ...) by generic exact division of the two expanded alternants."""
    num = sp_alternant([lam[i] + n - i for i in range(n)], n)
    return poly_div_exact(num, sp_alternant([n - i for i in range(n)], n))


def demazure_step_by_division(mu: tuple[int, ...], i: int) -> SymLaurent:
    """pi_i X^mu by its definition, through generic exact division: for
    i < r - 1, (x_i f - x_{i+1} s_i f) / (x_i - x_{i+1}), s_i exchanging
    x_i and x_{i+1} (0-based); for i = r - 1, the long root 2 e_r of type C,
    (f - x_r^-2 s_r f) / (1 - x_r^-2), s_r inverting x_r."""
    r = len(mu)
    reflected = list(mu)
    if i < r - 1:
        reflected[i], reflected[i + 1] = mu[i + 1], mu[i]
        x_i, x_next = _power(r, i, 1), _power(r, i + 1, 1)
        num = x_i * SymLaurent.monomial(r, mu) - x_next * SymLaurent.monomial(r, reflected)
        return poly_div_exact(num, x_i - x_next)
    reflected[i] = -mu[i]
    lowered = _power(r, i, -2)
    num = SymLaurent.monomial(r, mu) - lowered * SymLaurent.monomial(r, reflected)
    return poly_div_exact(num, SymLaurent.one(r) - lowered)
