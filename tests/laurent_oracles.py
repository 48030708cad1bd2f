"""Property oracles for Laurent polynomials, used by the tests only.

Written on the public API of ``paramodular.rings`` alone (the constructor
and the nested view ``c``), so that they check the flat store from outside
rather than through its own rules.
"""

from __future__ import annotations

from paramodular.rings import SymLaurent


def _transposed(a: SymLaurent, i: int) -> SymLaurent:
    """a with the variables X_i and X_{i+1} exchanged."""

    def swap(e):
        e = list(e)
        e[i], e[i + 1] = e[i + 1], e[i]
        return tuple(e)

    return SymLaurent(a.r, {swap(e): x for e, x in a.c.items()})


def is_symmetric(a: SymLaurent) -> bool:
    """True iff a is invariant under every permutation of the variables
    (checked on adjacent transpositions, which generate)."""
    return all(_transposed(a, i) == a for i in range(a.r - 1))


def is_in_s0(a: SymLaurent) -> bool:
    """True iff a is symmetric and invariant under inverting any *pair* of
    variables.  The pair inversions and the symmetric group are generated by
    adjacent transpositions together with inversion of the last two
    variables, so only those are checked."""
    if not is_symmetric(a):
        return False
    if a.r < 2:
        return True
    inverted = SymLaurent(a.r, {(*e[:-2], -e[-2], -e[-1]): x for e, x in a.c.items()})
    return inverted == a


def is_homogeneous(a: SymLaurent, degree: int | None = None) -> bool:
    """True iff every term of a has the same total X-degree (``degree``,
    when given); the zero polynomial is homogeneous of every degree."""
    degrees = {sum(e) for e in a.c}
    if not degrees:
        return True
    return len(degrees) == 1 if degree is None else degrees == {degree}


def min_var_exp(a: SymLaurent) -> int:
    """Smallest exponent on any variable (0 for constants)."""
    return min([0, *(x for e in a.c for x in e)])
