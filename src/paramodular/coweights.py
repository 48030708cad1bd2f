"""Integer coweight combinatorics.

Coweights are plain integer tuples.  Three dominance cones appear:

* GL-dominant: weakly decreasing (lambda_1 >= ... >= lambda_n);
* G-dominant:  weakly decreasing and non-negative (type B/C cone, used for
  the odd orthogonal group of rank n);
* H-dominant:  lambda_1 >= ... >= lambda_{n-1} >= |lambda_n| (type D cone,
  used for the even orthogonal group of rank n).

One enumerator serves every cone and every bound: it generates the weakly
decreasing tuples of bounded sup norm directly rather than filtering the
whole box of integer tuples, and it prunes by trace, so the partitions of
bounded trace come from it too.  Alongside it this module carries the
closed-form dimension count for paramodular fixed spaces at level m above
the newform level a, and the cardinality of the raising-operator basis that
should match it.
"""

from __future__ import annotations

import math
from enum import Enum

Coweight = tuple[int, ...]


class Cone(Enum):
    GL = "gl-dominant"
    G = "g-dominant"
    H = "h-dominant"


def sup_norm(lam: Coweight) -> int:
    return max((abs(x) for x in lam), default=0)


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


def enumerate_cone(
    cone: Cone, n: int, bound: int, max_trace: int | None = None
) -> list[Coweight]:
    """All dominant coweights of length n with sup norm <= bound and, when
    max_trace is given, trace <= max_trace, in lexicographic order.

    Every cone lies inside the weakly decreasing tuples with entries in
    [lo, bound], where lo is 0 on the G cone and -bound otherwise, so those
    are generated directly, one entry at a time: each prefix in
    lexicographic order grows by every entry it admits, smallest first,
    which keeps the order.  A prefix admits no entry that would leave its
    remaining entries, each at least lo, unable to keep the trace within
    max_trace.  Only the H cone needs a filter afterwards."""
    if n < 1:
        raise ValueError("rank must be positive")
    if bound < 0:
        return []
    lo = 0 if cone is Cone.G else -bound
    # each prefix with the cap on its next entry and the trace it has left
    level = [((), bound, n * bound if max_trace is None else max_trace)]
    for k in range(n - 1, -1, -1):
        # k entries follow the one added now
        level = [
            (lam + (a,), a, left - a)
            for lam, cap, left in level
            for a in range(lo, min(cap, left - k * lo) + 1)
        ]
    out = [lam for lam, _, _ in level]
    if cone is Cone.H:
        return [lam for lam in out if is_dominant(lam, cone)]
    return out


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
