"""Integer coweight combinatorics.

Coweights are plain integer tuples.  Three dominance cones appear:

* GL-dominant: weakly decreasing (lambda_1 >= ... >= lambda_n);
* G-dominant:  weakly decreasing and non-negative (type B/C cone, used for
  the odd orthogonal group of rank n);
* H-dominant:  lambda_1 >= ... >= lambda_{n-1} >= |lambda_n| (type D cone,
  used for the even orthogonal group of rank n).

Cone enumeration generates the weakly decreasing tuples directly rather
than filtering the whole box of integer tuples, and the partitions of
bounded trace are generated directly by trace.  Alongside it this module
carries the closed-form dimension count for paramodular fixed spaces at
level m above the newform level a, and the cardinality of the
raising-operator basis that should match it.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum

Coweight = tuple[int, ...]


class Cone(Enum):
    GL = "gl-dominant"
    G = "g-dominant"
    H = "h-dominant"


def sup_norm(lam: Coweight) -> int:
    return max((abs(x) for x in lam), default=0)


def trace(lam: Coweight) -> int:
    return sum(lam)


def tilde(lam: Coweight) -> Coweight:
    """Negate the last entry (the outer automorphism on the type D cone)."""
    if not lam:
        raise ValueError("empty coweight")
    return lam[:-1] + (-lam[-1],)


def is_dominant(lam: Coweight, cone: Cone) -> bool:
    n = len(lam)
    if n == 0:
        return True
    if cone is Cone.GL:
        return all(lam[i] >= lam[i + 1] for i in range(n - 1))
    if cone is Cone.G:
        return all(lam[i] >= lam[i + 1] for i in range(n - 1)) and lam[-1] >= 0
    if cone is Cone.H:
        head = all(lam[i] >= lam[i + 1] for i in range(n - 2))
        return head and (n < 2 or lam[-2] >= abs(lam[-1]))
    raise ValueError(f"unknown cone {cone}")


def enumerate_cone(cone: Cone, n: int, bound: int) -> list[Coweight]:
    """All dominant coweights of length n with sup norm <= bound, in
    lexicographic order.

    Every cone lies inside the weakly decreasing tuples, and the G cone
    inside the non-negative ones, so the candidates are generated directly
    as non-increasing tuples with entries in [lo, bound] and then
    filtered."""
    if n < 1:
        raise ValueError("rank must be positive")
    if bound < 0:
        return []
    lo = 0 if cone is Cone.G else -bound
    out = [
        lam
        for lam in itertools.combinations_with_replacement(range(bound, lo - 1, -1), n)
        if is_dominant(lam, cone)
    ]
    out.sort()
    return out


def enumerate_partitions(n: int, max_trace: int) -> list[Coweight]:
    """The G-dominant coweights of length n with trace <= max_trace (the
    partitions into at most n parts, padded with zeros), in lexicographic
    order: ``[lam for lam in enumerate_cone(Cone.G, n, max_trace) if
    trace(lam) <= max_trace]``, generated directly."""
    if n < 1:
        raise ValueError("rank must be positive")

    def parts(k: int, cap: int, budget: int):
        # weakly decreasing k-tuples with entries <= cap and sum <= budget
        if k == 0:
            yield ()
            return
        for first in range(min(cap, budget) + 1):
            for rest in parts(k - 1, first, budget - first):
                yield (first, *rest)

    return list(parts(n, max_trace, max_trace))


def dim_formula(n: int, m: int, a: int) -> int:
    """Closed-form dimension of the level-m paramodular fixed space above a
    newform of level a (rank n); 0 when m < a."""
    if m < a:
        return 0
    gap = m - a
    return math.comb(n + gap // 2, n) + math.comb(n + (gap + 1) // 2 - 1, n)


def basis_cardinality(n: int, m: int, a: int) -> int:
    """Size of the raising-operator basis at level m.

    Same parity (m - a even): coweights in the type D cone with
    2*sup_norm <= m - a.  Opposite parity: two families (one per degree-one
    raising operator) indexed by the type B/C cone with
    2*sup_norm <= m - a - 1.
    """
    if m < a:
        return 0
    gap = m - a
    if gap % 2 == 0:
        return len(enumerate_cone(Cone.H, n, gap // 2))
    return 2 * len(enumerate_cone(Cone.G, n, (gap - 1) // 2))
