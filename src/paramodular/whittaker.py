"""Spherical Whittaker values and finitely supported Whittaker data.

The GL_r spherical Whittaker value at a torus coweight lam is

    v^{-sum_i lam_i (r + 1 - 2i)} * s_lam(X_1..X_r)

(the square root of the Borel modulus character times the Schur
polynomial), and it vanishes off the weakly decreasing cone.

A ``WhittakerData`` models the restriction of a Whittaker function to the
dominant torus of the rank-n odd orthogonal group: a finitely supported map
from the non-negative weakly decreasing cone to VLaurent, stored as its
generating function sum_lam d(lam) X^lam.  Lookups outside the cone return
0, which is exactly the support property paramodular-fixed vectors enjoy.
Each data-level raising operator multiplies the generating function by its
symbol and keeps the terms inside the cone:

    eta:          X_1 ... X_n    result(lam) = d(lam - (1,..,1))
    theta  (n=2): X_1 + q X_2    result(lam) = d(lam - e1) + q * d(lam - e2)
    theta' (n=2): X_1 X_2 + q    result(lam) = d(lam - e1 - e2) + q * d(lam)

The theta' rule reflects that its second coset family acts through a
unipotent element on which the Whittaker character is trivial, so the
values are picked up in place (with multiplicity q), not shifted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

from .characters import schur, sp_character_value
from .coweights import Cone, Coweight, is_dominant, enumerate_cone, trace
from .rings import SymLaurent, VLaurent


def gl_modulus_exponent(lam: Coweight, r: int) -> int:
    """Exponent w with delta_B^{1/2}(pi^lam) = v^{-w} for GL_r."""
    return sum(lam[i] * (r - 1 - 2 * i) for i in range(r))


def gl_whittaker(lam: Coweight, r: int) -> SymLaurent:
    """Normalized GL_r spherical Whittaker value at pi^lam; zero off the
    weakly decreasing cone."""
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("coweight length differs from r")
    if not is_dominant(lam, Cone.GL):
        return SymLaurent.zero(r)
    return SymLaurent.constant(r, VLaurent.v_power(-gl_modulus_exponent(lam, r))) * schur(lam, r)


class WhittakerData:
    """Finitely supported map from the non-negative weakly decreasing cone
    (length-n coweights) to VLaurent, stored as its generating function
    ``gen`` = sum_lam d(lam) X^lam, a SymLaurent in n variables whose terms
    all lie in the cone.  Immutable by convention, so the by-trace index of
    the support is built at most once, on first use."""

    __slots__ = ("gen", "_by_trace")

    def __init__(self, n: int, values: Mapping[Coweight, VLaurent] | None = None):
        if n < 1:
            raise ValueError("rank must be positive")
        self.gen = SymLaurent(n, values)
        self._by_trace = None
        for lam in self.gen.c:
            if not is_dominant(lam, Cone.G):
                raise ValueError(f"support coweight {lam} outside the dominant cone")

    @staticmethod
    def _of(gen: SymLaurent) -> "WhittakerData":
        """Wrap a generating function already supported in the cone."""
        out = WhittakerData.__new__(WhittakerData)
        out.gen = gen
        out._by_trace = None
        return out

    @property
    def n(self) -> int:
        return self.gen.r

    def get(self, lam: Coweight) -> VLaurent:
        lam = tuple(lam)
        if len(lam) != self.n:
            raise ValueError("coweight length differs from rank")
        return self.gen.c.get(lam, VLaurent.zero())

    @property
    def support(self) -> list[Coweight]:
        return sorted(self.gen.c)

    def items(self) -> Iterable[tuple[Coweight, VLaurent]]:
        return sorted(self.gen.c.items())

    def of_trace(self, ell: int) -> Sequence[tuple[Coweight, VLaurent]]:
        """The pairs of ``items()`` whose weight has trace ell, in the same
        order."""
        if self._by_trace is None:
            index: dict[int, list[tuple[Coweight, VLaurent]]] = {}
            for lam, x in self.items():
                index.setdefault(trace(lam), []).append((lam, x))
            self._by_trace = index
        return self._by_trace.get(ell, ())

    def max_trace(self) -> int:
        return max((trace(lam) for lam in self.gen.c), default=0)

    def __add__(self, other: "WhittakerData") -> "WhittakerData":
        return WhittakerData._of(self.gen + other.gen)

    def __sub__(self, other: "WhittakerData") -> "WhittakerData":
        return WhittakerData._of(self.gen - other.gen)

    def scale(self, c: VLaurent | Fraction | int) -> "WhittakerData":
        return WhittakerData._of(self.gen * c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WhittakerData):
            return NotImplemented
        return self.n == other.n and self.gen == other.gen

    __hash__ = None  # type: ignore[assignment]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"lambda": list(lam), "value": x.to_json()}
                for lam, x in self.items()
            ],
        }

    @staticmethod
    def from_json(data: Any) -> "WhittakerData":
        """The inverse of ``to_json``.  Raises ValueError naming the field
        of data that is missing or malformed."""
        field, values = "the top level", {}
        try:
            if not isinstance(data, Mapping):
                raise TypeError(f"expected a JSON object, got {type(data).__name__}")
            field = "n"
            n = int(data["n"])
            field = "entries"
            for i, entry in enumerate(data["entries"]):
                field = f"entries[{i}]"
                values[tuple(entry["lambda"])] = VLaurent.from_json(entry["value"])
        except (LookupError, TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
            raise ValueError(f"bad Whittaker data at {field}: {exc!r}") from None
        return WhittakerData(n, values)

    def __repr__(self) -> str:
        return f"WhittakerData(n={self.n}, support={self.support})"


def so_modulus_exponent(lam: Coweight, n: int) -> int:
    """Exponent w with delta_B^{1/2}(pi^lam) = v^{-w} for the rank-n odd
    orthogonal group (2*rho = sum_i (2n - 2i + 1) e_i)."""
    return sum(lam[i] * (2 * n - 2 * i - 1) for i in range(n))


def spherical_so_data(beta: tuple[Fraction, ...], n: int, cutoff: int) -> WhittakerData:
    """Whittaker data of the normalized spherical vector with Satake
    parameter beta (Casselman-Shalika: modulus square root times the
    symplectic character of the dual group), populated through trace
    <= cutoff: all that a series truncated at Y-degree cutoff reads, also
    after raising moves, which read at equal or lower trace."""
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != n:
        raise ValueError("Satake parameter length differs from rank")
    if any(b == 0 for b in beta):
        raise ValueError("Satake parameters must be nonzero")
    values = {}
    for lam in enumerate_cone(Cone.G, n, cutoff):
        if trace(lam) <= cutoff:
            values[lam] = VLaurent({-so_modulus_exponent(lam, n): sp_character_value(lam, beta)})
    return WhittakerData(n, values)


def _move(d: WhittakerData, symbol: SymLaurent) -> WhittakerData:
    """The data whose generating function is d.gen * symbol, restricted to
    the dominant cone: result(lam) = sum_s c_s d(lam - s) for the terms
    c_s X^s of the symbol."""
    return WhittakerData._of((d.gen * symbol).restrict(lambda lam: is_dominant(lam, Cone.G)))


def _assert_rank_two(d: WhittakerData, name: str) -> None:
    if d.n != 2:
        raise ValueError(f"{name} is only defined at rank 2")


def eta_data(d: WhittakerData) -> WhittakerData:
    """Data-level action of the torus translation by -(1,..,1): result(lam)
    = d(lam - (1,..,1)), so the support shifts up by one box in every
    coordinate."""
    return _move(d, SymLaurent.monomial(d.n, (1,) * d.n))


def theta_data(d: WhittakerData) -> WhittakerData:
    """Rank-2 degree-one raising operator: result(lam) = d(lam - e1)
    + q * d(lam - e2), with out-of-cone lookups contributing 0."""
    _assert_rank_two(d, "theta_data")
    return _move(d, SymLaurent(2, {(1, 0): 1, (0, 1): VLaurent.q_power(1)}))


def theta_prime_data(d: WhittakerData) -> WhittakerData:
    """Rank-2 degree-two raising operator: result(lam) = d(lam - e1 - e2)
    + q * d(lam).  The second family of cosets acts through a unipotent on
    which the Whittaker character is trivial, hence the in-place term."""
    _assert_rank_two(d, "theta_prime_data")
    return _move(d, SymLaurent(2, {(1, 1): 1, (0, 0): VLaurent.q_power(1)}))
