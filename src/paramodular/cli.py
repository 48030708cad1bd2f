"""Batch verification harness and command-line interface.

A verification run is a named suite expanded into independent cases; each
case draws its own deterministic random generator from (seed, case key),
so results do not depend on execution order and cases can run in separate
processes (PARAMODULAR_JOBS of them, at most one per usable CPU).  Within
one run_suite call the cases of one trial share what they draw and derive
(fe and gsp4-raising draw once a trial, level-a1 once a run).  That too is
independent of order, because every shared value is keyed by (seed, trial)
and is computed by whichever case reads it first.  A failing case always
carries a witness: the first mismatching series coefficient (or the
offending values) plus the parameters needed to replay it.

Reports serialize to JSON (schema "paramodular-report/1"), plain text, or
CSV.  Apart from elapsed-time fields the JSON output is byte-deterministic
for a fixed config.  Every JSON output (reports, xi, char, compare-bases)
is written by one writer whose text is exactly what json.dumps(value,
indent=2, sort_keys=True) gives.  With an indent, json runs its pure-Python
encoder, a generator per container; the writer appends the pieces of each
case record to one list instead, which takes a fraction of the time on
reports of thousands of cases.

Subcommands: verify, xi, char, compare-bases.  Exit status 0 means
every case passed.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Any, Callable

from . import __version__
from .characters import orbit_sum, schur, sp_character
from .coweights import basis_cardinality, dim_formula
from .oldforms import (
    COMPARE_GAPS,
    bprime_images,
    compare_bases,
    dependence_sides,
    depth_shift_factor,
    rank_check,
    theta_factor,
    theta_prime_factor,
)
from .rankin import (
    EpsilonData,
    EvaluationMode,
    SymbolicMode,
    TruncSeries,
    _phi_factors,
    _psi_times,
    _times_coordinates,
    fe_check,
    kernel_check,
    p_wedge2,
    psi_alternant,
    psi_series,
    specialize_last,
    xi,
)
from .rings import SymLaurent, VLaurent
from .sampling import (
    case_rng,
    random_beta,
    random_point,
    random_v,
    random_whittaker_data,
)
from .whittaker import (
    WhittakerData,
    eta_data,
    spherical_so_data,
    theta_data,
    theta_prime_data,
)

_Q = VLaurent.q_power(1)

_MODES = ("evaluation", "symbolic")

# each n = 2 move: the name of its action on Whittaker data in this module
# and the factor it multiplies the r = n series by
_MOVES = {
    "theta": ("theta_data", theta_factor()),
    "theta-prime": ("theta_prime_data", theta_prime_factor()),
    "eta": ("eta_data", depth_shift_factor(2)),
}


def _apply_move(op: str, d: WhittakerData) -> WhittakerData:
    """The named move applied to d.  The action is looked up among this
    module's names at each call, so a rebinding of them (a tracer, a test
    spy) is seen."""
    return globals()[_MOVES[op][0]](d)


# the values of options left unset
_OPTION_DEFAULTS = {"trunc": 8, "seed": 42, "mode": "evaluation"}


@dataclasses.dataclass
class VerifyConfig:
    """One suite run.  An optional field left at None was not given: the
    suite's default fills it in, and giving a field the suite does not
    read is an error."""

    suite: str
    n: int | None = None
    r: int | None = None
    trunc: int | None = None
    trials: int | None = None
    seed: int | None = None
    mode: str | None = None
    max_gap: int | None = None

    def __post_init__(self) -> None:
        if self.suite not in _SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        suite = _SUITES[self.suite]
        ignored = [
            "--" + f.name.replace("_", "-")
            for f in dataclasses.fields(self)[1:]
            if getattr(self, f.name) is not None and f.name not in suite.reads
        ]
        if ignored:
            raise ValueError(f"suite {self.suite} does not read {', '.join(ignored)}")
        for name, default in {**_OPTION_DEFAULTS, "trials": suite.trials}.items():
            if getattr(self, name) is None:
                setattr(self, name, default)
        floor = suite.min_trunc
        if self.trunc < floor:
            raise ValueError(f"suite {self.suite} needs trunc >= {floor}, got {self.trunc}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        for name, least in (("n", 1), ("r", 1), ("max_gap", 0)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"need {name} >= {least}, got {value}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


@dataclasses.dataclass
class CaseRecord:
    case: str
    parameters: dict
    verdict: bool
    witness: dict | None
    elapsed_ms: float


@dataclasses.dataclass
class Report:
    suite: str
    config: VerifyConfig
    cases: list[CaseRecord]

    @property
    def all_passed(self) -> bool:
        return all(c.verdict for c in self.cases)

    def _header(self) -> dict:
        """Every field of the JSON report but its cases."""
        return {
            "schema": "paramodular-report/1",
            "version": __version__,
            "suite": self.suite,
            # no suite reads a window; ROADMAP item 19 drops it with schema 2
            "config": {**dataclasses.asdict(self.config), "window": 4},
            "total": len(self.cases),
            "passed": sum(c.verdict for c in self.cases),
            "failed": sum(not c.verdict for c in self.cases),
            "all_passed": self.all_passed,
        }


def _first_mismatch(a: TruncSeries, b: TruncSeries, through: int) -> dict | None:
    k = a.first_mismatch(b, through)
    if k is None:
        return None
    return {"coefficient": k, "expected": str(b.get(k)), "got": str(a.get(k))}


# every xi image the fe, level-a1 and prop4 suites form (a move or an
# eigenvector theta +- theta' of the spherical vector) has Y-degree <= 2
_IMAGE_DEGREE = 2


def _image_xi(d: WhittakerData, r: int, beta, trunc: int, level: int = 0):
    """xi of an n = 2 image, stabilized when degrees 3..trunc vanish; xi
    needs that window to be 2 wide, so trunc >= _IMAGE_DEGREE + 2."""
    return xi(d, 2, r, beta=beta, trunc=trunc, window=trunc - _IMAGE_DEGREE, level=level)


def _series_factor(factor: SymLaurent) -> TruncSeries:
    """A move factor as a multiplier of the symbolic Y-series.  psi_l is
    homogeneous of degree l in X, so a monomial of total X-degree k goes to
    Y^k."""
    graded: dict[int, dict] = {}
    for e, c in factor.c.items():
        graded.setdefault(sum(e), {})[e] = c
    coeffs = {k: SymLaurent(factor.r, terms) for k, terms in graded.items()}
    return TruncSeries(coeffs, None, SymLaurent.zero(factor.r))


# ---------------------------------------------------------------------------
# suites: a case generator and a case runner each.  A runner returns the
# echoed parameters and a witness (None when the case passes).

_UNSTABLE = {"reason": "series did not stabilize"}
_DISAGREE = {"reason": "Schur coordinates and series disagree"}

# What the cases of the current trial share: the trial's key and its values
# by name.  run_suite turns this on (an empty dict) and off again (None);
# outside it every case computes everything it reads.
_trial_values: dict | None = None
_trial_key: tuple | None = None


def _shared(trial_key: tuple, name: str, make: Callable[[], Any]) -> Any:
    """make(), remembered under name for the trial that trial_key names.
    The key holds every input the value depends on.  Only one trial's values
    are kept: a case of another trial empties them."""
    global _trial_key
    values = _trial_values
    if values is None:
        return make()
    if trial_key != _trial_key:
        values.clear()
        _trial_key = trial_key
    if name not in values:
        values[name] = make()
    return values[name]


def _ranks(cfg: VerifyConfig, default_ns: list[int], r_min: int = 1) -> list[tuple]:
    """(n, r) pairs: the requested n or each default one, with the requested
    r or each r from r_min to n.  Options that leave no pair raise
    ValueError: the cases of those ranks would check nothing."""
    pairs = [
        (n, r)
        for n in ([cfg.n] if cfg.n is not None else default_ns)
        for r in ([cfg.r] if cfg.r is not None else range(r_min, n + 1))
        if r_min <= r <= n
    ]
    if not pairs:
        raise ValueError(f"suite {cfg.suite} has no {r_min} <= r <= n at n={cfg.n}, r={cfg.r}")
    return pairs


def _random_data(rng, n: int) -> WhittakerData:
    """Random Whittaker data of rank n on weights of sup norm <= 2, or
    <= 1 from rank 3 on, where the series grow faster."""
    return random_whittaker_data(rng, n, max_norm=1 if n >= 3 else 2)


def _rank_cases(cfg: VerifyConfig) -> list[dict]:
    """A case per trial at each rank pair n <= 3, r <= n, or those asked for."""
    return [
        {"n": n, "r": r, "trial": t}
        for n, r in _ranks(cfg, [1, 2, 3])
        for t in range(cfg.trials)
    ]


def _unramified_run(cfg: VerifyConfig, params: dict):
    n, r, t = params["n"], params["r"], params["trial"]
    rng = case_rng(cfg.seed, f"unramified:{n}:{r}:{t}")
    beta = random_beta(rng, n)
    if cfg.mode == "evaluation":
        mode = EvaluationMode(r, random_point(rng, r), random_v(rng))
    else:
        mode = SymbolicMode(r)
    d = spherical_so_data(beta, n, cfg.trunc)
    # xi = P_phi psi / P_wedge2 is 1 through trunc exactly when P_phi psi
    # and the unit series P_wedge2 agree through trunc, and both first
    # differ at the same degree: no inversion and no window
    lhs = _psi_times(d, n, r, _phi_factors(beta, n, r, cfg.trunc), cfg.trunc, mode)
    echo = {**params, "beta": [str(b) for b in beta]}
    return echo, _first_mismatch(lhs, p_wedge2(r, mode, cfg.trunc), cfg.trunc)


def _psi_modes_run(cfg: VerifyConfig, params: dict):
    """Evaluation psi_series against symbolic psi_series lifted to the same
    point, degree by degree through trunc, on random data: each mode's
    torus sum and Schur values checked against the other's."""
    n, r, t = params["n"], params["r"], params["trial"]
    rng = case_rng(cfg.seed, f"psi-modes:{n}:{r}:{t}")
    d = _random_data(rng, n)
    mode = EvaluationMode(r, random_point(rng, r), random_v(rng))
    got = psi_series(d, n, r, cfg.trunc, mode)
    symbolic = psi_series(d, n, r, cfg.trunc, SymbolicMode(r))
    lifted = TruncSeries({k: mode.lift(c) for k, c in symbolic.coeffs.items()}, cfg.trunc, mode.zero())
    echo = {**params, "point": [str(x) for x in mode.point], "v": str(mode.v_value)}
    return echo, _first_mismatch(got, lifted, cfg.trunc)


def _gsp4_cases(cfg: VerifyConfig) -> list[dict]:
    return [
        {"trial": t, "operator": op}
        for t in range(cfg.trials)
        for op in ("theta", "theta-prime", "eta")
    ]


def _move_witness(
    d: WhittakerData, psi: SymLaurent, moved: WhittakerData, factor: SymLaurent, trunc: int
) -> dict | None:
    """None when the rank-r torus sum of the moved data is factor times that
    of d through degree trunc, r = factor.r, compared in Schur coordinates:
    psi is d's ``psi_alternant`` at rank r.  a_delta is not a zero divisor
    and both sides are symmetric, so equal coordinates prove the series
    identity.  A failing case builds its witness from the two series, the
    first mismatching coefficient, or says that the two paths disagree."""
    n, r = d.n, factor.r
    if psi_alternant(moved, n, r, trunc) == _times_coordinates(psi, factor, trunc):
        return None
    mode = SymbolicMode(r)
    lhs = psi_series(moved, n, r, trunc, mode)
    rhs = psi_series(d, n, r, trunc, mode) * _series_factor(factor)
    return _first_mismatch(lhs, rhs, trunc) or _DISAGREE


def _gsp4_run(cfg: VerifyConfig, params: dict):
    t, op = params["trial"], params["operator"]

    def draw():
        # the trial's data and their Schur coordinates, which all three
        # operators read
        d = _random_data(case_rng(cfg.seed, f"gsp4-raising:{t}"), 2)
        return d, psi_alternant(d, 2, 2, cfg.trunc)

    d, psi = _shared(("gsp4-raising", cfg.seed, cfg.trunc, t), "data", draw)
    moved = _apply_move(op, d)
    return dict(params), _move_witness(d, psi, moved, _MOVES[op][1], cfg.trunc)


def _eta_lemma_cases(cfg: VerifyConfig) -> list[dict]:
    ns = [cfg.n] if cfg.n is not None else [3]
    return [{"n": n, "trial": t} for n in ns for t in range(cfg.trials)]


def _eta_lemma_run(cfg: VerifyConfig, params: dict):
    n, t = params["n"], params["trial"]
    d = _random_data(case_rng(cfg.seed, f"eta-lemma:{n}:{t}"), n)
    psi = psi_alternant(d, n, n, cfg.trunc)
    return dict(params), _move_witness(d, psi, eta_data(d), depth_shift_factor(n), cfg.trunc)


def _dims_cases(cfg: VerifyConfig) -> list[dict]:
    max_n = cfg.n if cfg.n is not None else 4
    max_gap = cfg.max_gap if cfg.max_gap is not None else 8
    return [
        {"n": n, "m_minus_a": g}
        for n in range(1, max_n + 1)
        for g in range(max_gap + 1)
    ]


def _dims_run(cfg: VerifyConfig, params: dict):
    n, g = params["n"], params["m_minus_a"]
    formula = dim_formula(n, g, 0)
    enumeration = basis_cardinality(n, g, 0)
    echo = {**params, "formula": formula, "enumeration": enumeration}
    if formula != enumeration:
        return echo, {"expected": formula, "got": enumeration}
    return echo, None


def _prop4_cases(cfg: VerifyConfig) -> list[dict]:
    out = [
        {"check": "specialize", "n": n, "r": r, "trial": t}
        for n, r in _ranks(cfg, [2, 3], r_min=2)
        for t in range(cfg.trials)
    ]
    for t in range(cfg.trials):
        for check in ("zeta-theta", "zeta-theta-prime", "zeta-eta"):
            out.append({"check": check, "n": 2, "trial": t})
    out.append({"check": "xi-specialize-theta", "n": 2})
    out.append({"check": "xi-specialize-eta", "n": 2})
    return out


def _specialize_sides(cfg: VerifyConfig, n: int, r: int, t: int):
    """The rank-r series at X_r = 0 and the rank-(r-1) series, at one random
    point.  Data that miss the rank-(r-1) slice are redrawn, so the two
    sides are never both trivially zero."""
    rng = case_rng(cfg.seed, f"prop4:{n}:{r}:{t}")
    d = _random_data(rng, n)
    while all(any(lam[r - 1:]) for lam in d.support):
        d = _random_data(rng, n)
    point = random_point(rng, r - 1)
    v = random_v(rng)
    lhs = psi_series(d, n, r, cfg.trunc, EvaluationMode(r, point + (Fraction(0),), v))
    rhs = psi_series(d, n, r - 1, cfg.trunc, EvaluationMode(r - 1, point, v))
    return lhs, rhs


def _prop4_run(cfg: VerifyConfig, params: dict):
    check, n = params["check"], params["n"]
    echo = dict(params)
    if check == "specialize":
        lhs, rhs = _specialize_sides(cfg, n, params["r"], params["trial"])
        return echo, _first_mismatch(lhs, rhs, cfg.trunc)
    if check.startswith("zeta"):
        # the r = 1 raising identities: X_2 = 0 in the move's factor
        t = params["trial"]
        d = _random_data(case_rng(cfg.seed, f"prop4:zeta:{t}"), 2)
        op = check.removeprefix("zeta-")
        psi = psi_alternant(d, 2, 1, cfg.trunc)
        factor = _MOVES[op][1].substitute_last_zero()
        return echo, _move_witness(d, psi, _apply_move(op, d), factor, cfg.trunc)
    # symbolic tower compatibility of the full normalized series
    rng = case_rng(cfg.seed, f"prop4:symbolic:{check}")
    beta = random_beta(rng, 2)
    sph = spherical_so_data(beta, 2, cfg.trunc)
    d = _apply_move(check.removeprefix("xi-specialize-"), sph)
    full = _image_xi(d, 2, beta, cfg.trunc)
    low = _image_xi(d, 1, beta, cfg.trunc)
    spec = specialize_last(full)
    if not (spec.poly == low.poly):
        return echo, {"expected": str(low.poly), "got": str(spec.poly)}
    return echo, _first_mismatch(spec.series, low.series, cfg.trunc)


def _level_a1_cases(cfg: VerifyConfig) -> list[dict]:
    return [{"check": c} for c in ("theta", "theta-prime", "constants-agree")]


def _level_a1_run(cfg: VerifyConfig, params: dict):
    def draw():
        # the run's two images, which all three cases read
        beta = random_beta(case_rng(cfg.seed, "level-a1"), 2)
        sph = spherical_so_data(beta, 2, cfg.trunc)
        moved = {op: _apply_move(op, sph) for op in ("theta", "theta-prime")}
        return beta, {op: _image_xi(d, 2, beta, cfg.trunc, level=1) for op, d in moved.items()}

    beta, images = _shared(("level-a1", cfg.seed, cfg.trunc), "images", draw)
    check = params["check"]
    echo = {**params, "beta": [str(b) for b in beta]}
    read = [images[check]] if check in images else images.values()
    if not all(res.stabilized for res in read):
        return echo, _UNSTABLE
    if check in images:
        res, expected = images[check], _MOVES[check][1]
        if res.poly == expected:
            return echo, None
        return echo, {"expected": str(expected), "got": str(res.poly)}
    # the two normalizing constants extracted from the images must agree:
    # each image is its constant times its move factor over q
    zero = VLaurent.zero()
    res_theta, res_tp = images["theta"], images["theta-prime"]
    c_theta = res_theta.poly.c.get((1, 0), zero)
    c_tp = res_tp.poly.c.get((0, 0), zero)
    shape_ok = (
        res_theta.poly * _Q == _MOVES["theta"][1] * c_theta
        and res_tp.poly * _Q == _MOVES["theta-prime"][1] * c_tp
    )
    if shape_ok and c_theta == c_tp:
        return {**echo, "constant": str(c_theta)}, None
    return echo, {"first_constant": str(c_theta), "second_constant": str(c_tp)}


def _oldform_cases(cfg: VerifyConfig) -> list[dict]:
    max_gap = cfg.max_gap if cfg.max_gap is not None else COMPARE_GAPS[-1]
    if max_gap > COMPARE_GAPS[-1]:
        raise ValueError(f"oldform-bases compares gaps 0..{COMPARE_GAPS[-1]}, not {max_gap}")
    return [{"m_minus_a": g} for g in range(max_gap + 1)]


def _oldform_run(cfg: VerifyConfig, params: dict):
    g = params["m_minus_a"]
    rep = compare_bases(g)
    # the closed form, not an enumeration of the cone the family is built on
    dimension = dim_formula(2, g, 0)
    echo = {
        **params,
        "b_size": len(rep["b_images"]),
        "rs_size": len(rep["rs_images"]),
        "b_rank": rep["b_rank"],
        "rs_rank": rep["rs_rank"],
        "union_rank": rep["union_rank"],
        "sets_equal": rep["sets_equal"],
        "spans_equal": rep["spans_equal"],
        "conditional": rep["conditional"],
    }
    if len(rep["b_images"]) != dimension:
        return echo, {"expected": dimension, "got": len(rep["b_images"])}
    if not rep["b_independent"]:
        return echo, {"reason": "orbit-paired family images are dependent"}
    if not rep["rs_independent"]:
        return echo, {"reason": "raising-word family images are dependent"}
    if not rep["conditional"] and not rep["spans_equal"]:
        return echo, {"reason": "spans differ on exact images"}
    return echo, None


def _dependence_cases(cfg: VerifyConfig) -> list[dict]:
    checks = ("identity", "negative-control", "numeric", "bprime-rank")
    return [{"check": c} for c in checks]


def _dependence_run(cfg: VerifyConfig, params: dict):
    check = params["check"]
    echo = dict(params)
    lhs, rhs = dependence_sides()
    if check == "identity":
        if lhs == rhs:
            return echo, None
        return echo, {"expected": str(rhs), "got": str(lhs)}
    if check == "negative-control":
        if lhs + SymLaurent.one(2) == rhs:
            return echo, {"reason": "perturbed relation still holds"}
        return echo, None
    if check == "numeric":
        point = (Fraction(2), Fraction(3))
        left = lhs.evaluate(point, Fraction(2))
        right = rhs.evaluate(point, Fraction(2))
        echo["point"] = ["2", "3"]
        echo["q"] = "4"
        if left == right:
            return echo, None
        return echo, {"expected": str(right), "got": str(left)}
    images = bprime_images(3)
    rank, independent = rank_check([im.poly for im in images])
    echo.update({"size": len(images), "rank": rank})
    if independent or rank >= len(images):
        return echo, {"reason": "unpaired family unexpectedly independent"}
    if rank != 5 or len(images) != 6:
        return echo, {"expected": "rank 5 of 6", "got": f"rank {rank} of {len(images)}"}
    return echo, None


def _kernel_cases(cfg: VerifyConfig) -> list[dict]:
    out = []
    for n, r in _ranks(cfg, [2, 3]):
        for variant in ("zero", "delta0", "on-slice", "off-slice"):
            if variant == "off-slice" and r == n:
                continue
            out.append({"n": n, "r": r, "variant": variant, "trial": 0})
        for t in range(cfg.trials):
            out.append({"n": n, "r": r, "variant": "random", "trial": t})
    return out


def _kernel_run(cfg: VerifyConfig, params: dict):
    n, r, variant, t = params["n"], params["r"], params["variant"], params["trial"]
    rng = case_rng(cfg.seed, f"kernel:{n}:{r}:{variant}:{t}")
    if variant == "zero":
        d = WhittakerData(n, {})
    elif variant == "delta0":
        d = WhittakerData(n, {(0,) * n: VLaurent.one()})
    elif variant == "on-slice":
        base = _random_data(rng, n)
        kept = {lam: x for lam, x in base.items() if not any(lam[r:])}
        d = WhittakerData(n, kept or {(0,) * n: VLaurent.one()})
    elif variant == "off-slice":
        base = _random_data(rng, n)
        kept = {lam: x for lam, x in base.items() if any(lam[r:])}
        d = WhittakerData(n, kept or {(1,) * n: VLaurent.one()})
    else:
        d = _random_data(rng, n)
    if kernel_check(d, n, r):
        return dict(params), None
    return dict(params), {"reason": "vanishing equivalence failed"}


def _fe_cases(cfg: VerifyConfig) -> list[dict]:
    checks = (
        "spherical",
        "plus",
        "minus",
        "negative-control",
        "palindromic-plus",
        "palindromic-minus",
    )
    return [{"check": c, "trial": t} for t in range(cfg.trials) for c in checks]


def _fe_run(cfg: VerifyConfig, params: dict):
    check, t = params["check"], params["trial"]
    # the trial's six cases read three images of one spherical vector
    trial = ("fe", cfg.seed, cfg.trunc, t)

    def draw():
        beta = random_beta(case_rng(cfg.seed, f"fe:{t}"), 2)
        return beta, spherical_so_data(beta, 2, cfg.trunc)

    beta, sph = _shared(trial, "data", draw)
    eps = EpsilonData(conductor=0, sign=1)
    echo = {**params, "beta": [str(b) for b in beta]}
    series = functools.partial(_image_xi, r=2, beta=beta, trunc=cfg.trunc)

    def image(ratio: int):
        # ratio 0: image of the spherical vector; ratio +-1: image of the
        # level-(a+1) eigenvector theta + ratio * theta'
        def make():
            if not ratio:
                return series(sph)
            return series(theta_data(sph) + theta_prime_data(sph).scale(ratio), level=1)

        return _shared(trial, f"image{ratio:+d}", make)

    ratio = -1 if check.endswith("minus") else 1
    res = image(0 if check == "spherical" else ratio)
    other = image(-1) if check == "negative-control" else res
    if not (res.stabilized and other.stabilized):
        return echo, _UNSTABLE
    if check == "negative-control":
        if fe_check(res, other, eps):
            return echo, {"reason": "mismatched pair passed"}
        return echo, None
    if check in ("spherical", "plus", "minus"):
        # the sign-adjusting involution fixes the spherical vector and acts
        # on the raised eigenvectors by (+-eps)^r = +1 at r = 2, so the
        # image result is res itself
        ok = fe_check(res, res, eps)
        return echo, None if ok else {"reason": "functional equation failed"}
    # palindromicity: the level-(a+1) eigenvector images are b0 times
    # (1 + ratio X_1)(1 + ratio X_2), ratio = +-1 the sign of the eigenvector
    b0 = res.poly.c.get((0, 0), VLaurent.zero())
    expected = SymLaurent(2, {(0, 0): b0, (1, 0): b0 * ratio, (0, 1): b0 * ratio, (1, 1): b0})
    if b0 and res.poly == expected:
        return echo, None
    return echo, {"expected": str(expected), "got": str(res.poly)}


@dataclasses.dataclass(frozen=True)
class _Suite:
    """A verify suite: its case generator and case runner, its default
    number of trials, the optional options it reads (giving another one
    is an error, not silently ignored) and its least trunc."""

    cases: Callable[[VerifyConfig], list[dict]]
    run: Callable[[VerifyConfig, dict], tuple]
    trials: int
    reads: tuple[str, ...] = ()
    min_trunc: int = 0


# eta-lemma runs at r = n, kernel reads its data through their largest
# trace, and only unramified takes a mode
_DRAWS = ("trials", "seed")
_SUITES = {
    "unramified": _Suite(_rank_cases, _unramified_run, 20, ("n", "r", "trunc", "mode", *_DRAWS)),
    "psi-modes": _Suite(_rank_cases, _psi_modes_run, 20, ("n", "r", "trunc", *_DRAWS)),
    "gsp4-raising": _Suite(_gsp4_cases, _gsp4_run, 100, ("trunc", *_DRAWS)),
    "eta-lemma": _Suite(_eta_lemma_cases, _eta_lemma_run, 50, ("n", "trunc", *_DRAWS)),
    "dims": _Suite(_dims_cases, _dims_run, 1, ("n", "max_gap")),
    "prop4": _Suite(_prop4_cases, _prop4_run, 20, ("n", "r", "trunc", *_DRAWS), _IMAGE_DEGREE + 2),
    "level-a1": _Suite(_level_a1_cases, _level_a1_run, 1, ("trunc", "seed"), _IMAGE_DEGREE + 2),
    "oldform-bases": _Suite(_oldform_cases, _oldform_run, 1, ("max_gap",)),
    "dependence": _Suite(_dependence_cases, _dependence_run, 1),
    "kernel": _Suite(_kernel_cases, _kernel_run, 50, ("n", "r", *_DRAWS)),
    "fe": _Suite(_fe_cases, _fe_run, 10, ("trunc", *_DRAWS), _IMAGE_DEGREE + 2),
}


def _run_case(config: VerifyConfig, params: dict) -> CaseRecord:
    runner = _SUITES[config.suite].run
    case_id = ",".join([f"{k}={params[k]}" for k in sorted(params)])
    start = time.perf_counter()
    try:
        echo, witness = runner(config, params)
    except Exception as exc:
        echo = dict(params)
        witness = {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = (time.perf_counter() - start) * 1000.0
    return CaseRecord(case_id, echo, witness is None, witness, elapsed)


def _jobs() -> int:
    """Worker processes from PARAMODULAR_JOBS (default 1), capped at the
    CPUs this process may use; a value that is not a positive integer ends
    the run with a one-line error."""
    raw = os.environ.get("PARAMODULAR_JOBS", "1")
    jobs = int(raw) if _INTEGER.fullmatch(raw) else 0
    if jobs < 1:
        raise SystemExit(f"paramodular: PARAMODULAR_JOBS must be a positive integer, got {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        return min(jobs, len(os.sched_getaffinity(0)))
    return min(jobs, os.cpu_count() or 1)


def run_suite(config: VerifyConfig) -> Report:
    """Run every case of the configured suite.  A configuration that
    selects no case raises ValueError: a report of 0/0 checks nothing."""
    global _trial_values, _trial_key
    cases = _SUITES[config.suite].cases(config)
    if not cases:
        options = ", ".join(f"{k}={getattr(config, k)}" for k in ("n", "r", "max_gap"))
        raise ValueError(f"suite {config.suite} has no cases for {options}")
    jobs = _jobs()
    worker = functools.partial(_run_case, config)
    # shared trial values live for this call only: a value kept from an
    # earlier run could have been computed by other code (a test's spy);
    # forked workers inherit the empty cache, spawned ones see it off
    _trial_values, _trial_key = {}, None
    try:
        if jobs > 1 and len(cases) > 1:
            # about 64 chunks a worker: few enough that a sub-millisecond case
            # does not pay a round trip of its own, enough to even out the load
            chunksize = max(1, len(cases) // (64 * jobs))
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                records = list(pool.map(worker, cases, chunksize=chunksize))
        else:
            records = [worker(c) for c in cases]
    finally:
        _trial_values, _trial_key = None, None
    return Report(config.suite, config, records)


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    """A finite float as json writes it.  The only floats written are
    elapsed times, so NaN and the infinities are refused."""
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# the JSON text of a scalar, by its exact type: a subclass (a str subclass,
# an IntEnum) could write other text than json does, and none is written
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: _ENCODE_STR,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value, out: list[str], indent: str) -> None:
    """Append the pieces of value's JSON text to out, as json.dumps(value,
    indent=2, sort_keys=True) writes it; indent is the newline and spaces
    that start value's first line.  value is a tree of lists, dicts with
    str keys, CaseRecords and scalars of _SCALAR_TEXT's types, each of
    exactly that type, which is all the program writes; anything else,
    subclasses included, raises TypeError.  A CaseRecord is written
    straight from its fields, in key order: case, elapsed_ms rounded to
    3 places, parameters, verdict "pass" or "fail", and the witness unless
    it is None."""
    to_text = _SCALAR_TEXT.get(value.__class__)
    if to_text is not None:
        out.append(to_text(value))
        return
    inner = indent + "  "
    if isinstance(value, CaseRecord):
        out.append("{" + inner + '"case": ')
        _write_json(value.case, out, inner)
        out.append("," + inner + '"elapsed_ms": ')
        _write_json(round(value.elapsed_ms, 3), out, inner)
        out.append("," + inner + '"parameters": ')
        _write_json(value.parameters, out, inner)
        out.append("," + inner + ('"verdict": "pass"' if value.verdict else '"verdict": "fail"'))
        if value.witness is not None:
            out.append("," + inner + '"witness": ')
            _write_json(value.witness, out, inner)
        out.append(indent + "}")
    elif value.__class__ is list:
        if not value:
            out.append("[]")
            return
        sep = "[" + inner
        for member in value:
            out.append(sep)
            _write_json(member, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    elif value.__class__ is dict:
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, member in sorted(value.items()):
            if key.__class__ is not str:
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + _ENCODE_STR(key) + ": ")
            _write_json(member, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_text(value) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, byte
    for byte, without json's pure-Python encoder and its generators."""
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def emit(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return _json_text({**report._header(), "cases": report.cases})
    if fmt == "text":
        lines = [
            f"suite {report.suite}: "
            f"{sum(c.verdict for c in report.cases)}/{len(report.cases)} passed"
        ]
        for c in report.cases:
            mark = "PASS" if c.verdict else "FAIL"
            line = f"  {mark}  {c.case}"
            if c.witness is not None:
                line += f"  witness: {json.dumps(c.witness, sort_keys=True)}"
            elif c.parameters.get("conditional") and c.parameters.get("spans_equal") is False:
                line += "  note: conditional pass, spans differ"
            lines.append(line)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        keys = sorted({k for c in report.cases for k in c.parameters})
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["case", "verdict", *keys])
        for c in report.cases:
            row = [c.case, "pass" if c.verdict else "fail"]
            row.extend(str(c.parameters.get(k, "")) for k in keys)
            writer.writerow(row)
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


# an integer entry of a flag: an optional minus sign and ASCII digits, so
# that the digit separators, padding and plus sign int() takes are refused;
# a rational entry is one such integer, or one over ASCII digits, which
# refuses what Fraction() would also take
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _integer(text: str) -> int:
    """text as an int when it is written as _INTEGER; ValueError
    otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# the name argparse gives the type of an integer flag in its error message
_integer.__name__ = "integer"


def _rational(text: str) -> Fraction:
    """text as a Fraction when it is written as _RATIONAL; ValueError
    otherwise, ZeroDivisionError for a zero denominator."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational number: {text!r}")
    return Fraction(text)


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each value that starts with a minus sign and a digit
    joined by "=" to the long option before it.  argparse reads a value
    such as "-1,0" as an unknown option (only a lone negative number
    passes), while "--lam=-1,0" is always a value; every option here but
    --version takes one value, so the joined form means the same, also for
    an abbreviated option such as "--la"."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        option = len(prev) > 2 and prev[:2] == "--" and "=" not in prev
        if option and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _parse_entries(text: str, flag: str, read: Callable, kind: str) -> tuple:
    """The comma-separated entries of a flag, each read by read;
    ValueError naming the flag and an entry that is not kind."""
    entries = []
    for part in text.split(","):
        try:
            entries.append(read(part))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{flag} entry {part!r} is not {kind}") from None
    return tuple(entries)


def _write_output(text: str, out: str | None) -> None:
    """text, ended by one newline, to the file out or else to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    fields = dataclasses.fields(VerifyConfig)
    config = VerifyConfig(**{f.name: getattr(args, f.name, None) for f in fields})
    report = run_suite(config)
    _write_output(emit(report, args.format), args.out)
    return 0 if report.all_passed else 1


def _whittaker_object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object of ``xi --data`` as a dict, or ValueError on a
    repeated key: plain json.load keeps the last value and drops the rest
    silently."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"bad Whittaker data: repeated key {key!r} in one object")
        obj[key] = value
    return obj


def _cmd_xi(args) -> int:
    with open(args.data, encoding="utf-8") as handle:
        payload = json.load(handle, object_pairs_hook=_whittaker_object)
    d = WhittakerData.from_json(payload)
    beta = _parse_entries(args.beta, "--beta", _rational, "a rational number") if args.beta else None
    result = xi(d, d.n, args.r, beta=beta, trunc=args.trunc, window=args.window, level=args.level)
    _write_output(_json_text(result.to_json()), args.out)
    return 0


def _cmd_char(args) -> int:
    lam = _parse_entries(args.lam, "--lam", _integer, "an integer")
    size = "vars" if args.kind == "schur" else "n"
    character = {"schur": schur, "sp": sp_character, "orbit": orbit_sum}[args.kind]
    poly = character(lam, len(lam))
    head = {"kind": args.kind, "lam": list(lam), size: len(lam)}
    _write_output(_json_text({**head, "poly": poly.to_json()}), args.out)
    return 0


def _cmd_compare_bases(args) -> int:
    rep = compare_bases(args.m_minus_a)
    _write_output(_json_text(rep), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramodular",
        description="Exact verification of paramodular oldform identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    about = "run a verification suite; each takes only the options that shape its verdicts"
    pv = sub.add_parser("verify", help=about, description=about)
    pv.add_argument("suite", choices=sorted(_SUITES))
    pv.add_argument("--n", type=_integer, default=None, help="the rank; for dims, the largest rank")
    pv.add_argument("--r", type=_integer, default=None)
    pv.add_argument("--trunc", type=_integer, help="default 8; fe, level-a1, prop4 need >= 4")
    pv.add_argument("--trials", type=_integer, default=None, help="default set by the suite")
    pv.add_argument("--seed", type=_integer, default=None, help="default 42")
    pv.add_argument("--mode", choices=_MODES, default=None, help="default evaluation")
    pv.add_argument("--max-gap", type=_integer, default=None, dest="max_gap")
    pv.add_argument("--format", choices=("json", "text", "csv"), default="json")
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify)

    px = sub.add_parser("xi", help="normalized series of data from a JSON file")
    px.add_argument("--data", required=True)
    px.add_argument("--r", type=_integer, required=True)
    px.add_argument("--beta", default=None, help="comma-separated rationals")
    px.add_argument("--trunc", type=_integer, default=None)
    px.add_argument("--window", type=_integer, default=4)
    px.add_argument("--level", type=_integer, default=0)
    px.add_argument("--out", default=None)
    px.set_defaults(func=_cmd_xi)

    pc = sub.add_parser("char", help="print a character polynomial")
    pc.add_argument("kind", choices=("schur", "sp", "orbit"))
    pc.add_argument("--lam", required=True, help="comma-separated coweight")
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=_cmd_char)

    pb = sub.add_parser("compare-bases", help="compare oldform families at n=2")
    pb.add_argument("--m-minus-a", type=_integer, required=True, dest="m_minus_a")
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=_cmd_compare_bases)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Bad input (a ValueError or OSError out of the
    subcommand, or the OverflowError of an exponent past the packed field
    limit) ends the run with a one-line error and exit status 1."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream pager/head closed the stream; not a verification failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError, OverflowError) as exc:
        raise SystemExit(f"paramodular: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
