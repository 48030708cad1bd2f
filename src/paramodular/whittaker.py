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

import functools
import operator
from fractions import Fraction
from typing import Any, Iterable, Mapping

from .characters import _det, _jacobi_trudi_row, _sp_table, schur, sp_character_value
from .coweights import Cone, Coweight, enumerate_cone, is_dominant
from .rings import SymLaurent, VLaurent

# the weights of one trace: each with its (v-exponent, numerator) terms
# over the generating function's denominator
_TraceWeights = list[tuple[Coweight, list[tuple[int, int]]]]


def gl_modulus_exponent(lam: Coweight, r: int) -> int:
    """Exponent w with delta_B^{1/2}(pi^lam) = v^{-w} for GL_r."""
    return sum(map(operator.mul, lam, range(r - 1, -r, -2)))


def gl_whittaker(lam: Coweight, r: int) -> SymLaurent:
    """Normalized GL_r spherical Whittaker value at pi^lam; zero off the
    weakly decreasing cone."""
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("coweight length differs from r")
    if not is_dominant(lam, Cone.GL):
        return SymLaurent.zero(r)
    return SymLaurent.constant(r, VLaurent.v_power(-gl_modulus_exponent(lam, r))) * schur(lam, r)


def _json_int(x: Any) -> int:
    """x if it is a JSON integer; TypeError for a float, a boolean (which
    Python counts as an int) or anything else."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


class WhittakerData:
    """Finitely supported map from the non-negative weakly decreasing cone
    (length-n coweights) to VLaurent, stored as its generating function
    ``gen`` = sum_lam d(lam) X^lam, a SymLaurent in n variables whose terms
    all lie in the cone.  Immutable by convention, so the trace index of
    the support is built at most once, on first use.  The index reads the
    flat terms of ``gen`` (each weight's v-exponents and int numerators
    over ``gen.den``); ``support`` and the torus sums read the index, and
    only ``get``, ``items`` and serialization the nested view of ``gen``."""

    __slots__ = ("gen", "_index")

    def __init__(self, n: int, values: Mapping[Coweight, VLaurent] | None = None):
        if n < 1:
            raise ValueError("rank must be positive")
        self.gen = SymLaurent(n, values)
        self._index = None
        for lam in self.support:
            if not is_dominant(lam, Cone.G):
                raise ValueError(f"support coweight {lam} outside the dominant cone")

    @staticmethod
    def _of(gen: SymLaurent) -> "WhittakerData":
        """Wrap a generating function already supported in the cone."""
        out = WhittakerData.__new__(WhittakerData)
        out.gen = gen
        out._index = None
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
        return sorted(lam for weights in self._trace_index().values() for lam, _ in weights)

    def items(self) -> Iterable[tuple[Coweight, VLaurent]]:
        return sorted(self.gen.c.items())

    def _trace_index(self) -> dict[int, _TraceWeights]:
        """Map each trace to its weights in ``items()`` order, each weight
        lam with the terms (e, x) of d(lam) = sum x / gen.den v^e,
        e ascending."""
        if self._index is None:
            index: dict[int, _TraceWeights] = {}
            for lam, terms in self.gen._grouped():
                index.setdefault(sum(lam), []).append((lam, terms))
            self._index = index
        return self._index

    def max_trace(self) -> int:
        return max(self._trace_index(), default=0)

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
        of data that is missing, malformed, past the packed field limit or,
        for an entry with a nonzero value, outside the dominant cone: each
        entry is checked as data of its own."""
        field, values = "the top level", {}
        try:
            if not isinstance(data, Mapping):
                raise TypeError(f"expected a JSON object, got {type(data).__name__}")
            field = "n"
            n = _json_int(data["n"])
            if n < 1:
                raise ValueError("rank must be positive")
            field = "entries"
            for i, entry in enumerate(data["entries"]):
                field = f"entries[{i}]"
                lam = tuple(map(_json_int, entry["lambda"]))
                if lam in values:
                    raise ValueError(f"repeated lambda {list(lam)}")
                values[lam] = VLaurent.from_json(entry["value"])
                WhittakerData(n, {lam: values[lam]})
        except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
            raise ValueError(f"bad Whittaker data at {field}: {exc!r}") from None
        return WhittakerData(n, values)

    def __repr__(self) -> str:
        return f"WhittakerData(n={self.n}, support={self.support})"


def so_modulus_exponent(lam: Coweight, n: int) -> int:
    """Exponent w with delta_B^{1/2}(pi^lam) = v^{-w} for the rank-n odd
    orthogonal group (2*rho = sum_i (2n - 2i + 1) e_i)."""
    return sum(map(operator.mul, lam, range(2 * n - 1, 0, -2)))


def _satake(beta, n: int) -> tuple[Fraction, ...]:
    """The Satake parameter beta of rank n as Fractions; ValueError unless
    it has n entries, all nonzero."""
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != n:
        raise ValueError("Satake parameter length differs from n")
    if any(b == 0 for b in beta):
        raise ValueError("Satake parameters must be nonzero")
    return beta


@functools.cache
def _so_weights(n: int, cutoff: int) -> tuple[tuple[Coweight, tuple[int, ...], int, int], ...]:
    """What the spherical data of rank n through trace <= cutoff read of
    each weight lam of the cone, independent of beta: the shifts
    lam_i - i of the Koike-Terada rows of its nonzero parts, its
    v-exponent -``so_modulus_exponent`` and the power cutoff - |lam| of B
    that lifts its character to the data's denominator B^cutoff."""
    return tuple(
        (
            lam,
            tuple(a - i for i, a in enumerate(lam) if a),
            -so_modulus_exponent(lam, n),
            cutoff - sum(lam),
        )
        for lam in enumerate_cone(Cone.G, n, cutoff, max_trace=cutoff)
    )


def spherical_so_data(beta: tuple[Fraction, ...], n: int, cutoff: int) -> WhittakerData:
    """Whittaker data of the normalized spherical vector with Satake
    parameter beta (Casselman-Shalika: modulus square root times the
    symplectic character of the dual group), populated through trace
    <= cutoff: all that a series truncated at Y-degree cutoff reads, also
    after raising moves, which read at equal or lower trace.

    The characters are those of :func:`sp_character_value`, taken from one
    table of the 2n values beta_j^{+-1}: each weight's Koike-Terada
    determinant is the integer B^|lam| chi_lam(beta), so the data are these
    integers over B^cutoff, normalized once.  A row of that determinant
    depends only on its shift, and a weight of l nonzero parts reads the
    first l columns of its rows, so each row is built once per beta, n
    columns wide, for every shift a weight can have (lam_i >= 1 at
    i <= n - 1 gives 2 - n through cutoff).  The rest of a weight comes
    from the table of its rank and cutoff (``_so_weights``).  Weights come
    from the enumerated cone, so they need no second check, and a weight
    whose character vanishes leaves no term."""
    beta = _satake(beta, n)
    table = _sp_table(beta)
    den = table.den
    top = max(cutoff, 0)
    h, squared = table.upto(top + n - 1), den**2
    rows = {a: _jacobi_trudi_row(h, squared, a, n, True) for a in range(2 - n, top + 1)}
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * den)
    terms = []
    for lam, shifts, exponent, rescale in _so_weights(n, cutoff):
        k = len(shifts)
        x = _det([rows[a][:k] for a in shifts])
        if x:
            terms.append((lam, exponent, x * powers[rescale]))
    if top:
        # the rescaling to B^cutoff, read back at lam = e_1 through the
        # public rule
        e1 = (1,) + (0,) * (n - 1)
        x = next((x for lam, _, x in terms if lam == e1), 0)
        if Fraction(x, powers[top]) != sp_character_value(e1, beta):  # pragma: no cover
            raise ArithmeticError(f"spherical data disagree with the character at {e1}")
    return WhittakerData._of(SymLaurent._of_terms(n, terms, powers[top]))


def _in_cone(lam: Coweight) -> bool:
    """Whether lam lies in the non-negative weakly decreasing cone."""
    return is_dominant(lam, Cone.G)


def _move(d: WhittakerData, symbol: SymLaurent) -> WhittakerData:
    """The data whose generating function is d.gen * symbol kept in the
    dominant cone, in one pass (``SymLaurent._times_where``): result(lam) =
    sum_s c_s d(lam - s) for the terms c_s X^s of the symbol."""
    return WhittakerData._of(d.gen._times_where(symbol, _in_cone))


# The symbols of the moves.  Values are immutable, so one of each serves
# every call: the rank-2 ones are built here, eta's once per rank.
_THETA = SymLaurent(2, {(1, 0): 1, (0, 1): VLaurent.q_power(1)})
_THETA_PRIME = SymLaurent(2, {(1, 1): 1, (0, 0): VLaurent.q_power(1)})


@functools.cache
def _eta_symbol(n: int) -> SymLaurent:
    return SymLaurent.monomial(n, (1,) * n)


def _assert_rank_two(d: WhittakerData, name: str) -> None:
    if d.n != 2:
        raise ValueError(f"{name} is only defined at rank 2")


def eta_data(d: WhittakerData) -> WhittakerData:
    """Data-level action of the torus translation by -(1,..,1): result(lam)
    = d(lam - (1,..,1)), so the support shifts up by one box in every
    coordinate."""
    return _move(d, _eta_symbol(d.n))


def theta_data(d: WhittakerData) -> WhittakerData:
    """Rank-2 degree-one raising operator: result(lam) = d(lam - e1)
    + q * d(lam - e2), with out-of-cone lookups contributing 0."""
    _assert_rank_two(d, "theta_data")
    return _move(d, _THETA)


def theta_prime_data(d: WhittakerData) -> WhittakerData:
    """Rank-2 degree-two raising operator: result(lam) = d(lam - e1 - e2)
    + q * d(lam).  The second family of cosets acts through a unipotent on
    which the Whittaker character is trivial, hence the in-place term."""
    _assert_rank_two(d, "theta_prime_data")
    return _move(d, _THETA_PRIME)
