"""Command-line interface: suite runners, report formats, subcommands."""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import enum
import functools
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import paramodular
from paramodular import cli, coweights, oldforms, rankin, rings, whittaker
from paramodular.characters import orbit_sum, schur, sp_character
from paramodular.cli import (
    CaseRecord,
    Report,
    VerifyConfig,
    _prop4_cases,
    _specialize_sides,
    emit,
    main,
    run_suite,
)
from paramodular.rankin import EvaluationMode, SymbolicMode, psi_series, xi
from paramodular.rings import SymLaurent, VLaurent
from paramodular.sampling import case_rng, random_beta, random_point, random_v
from paramodular.whittaker import WhittakerData, eta_data, spherical_so_data, theta_data

from laurent_oracles import unit_series

BETA2 = (Fraction(2), Fraction(3, 2))


def report_json(report: Report) -> dict:
    """The JSON value of a report, built from its fields: the reference
    that the report writer must match."""
    cases = []
    for c in report.cases:
        case = {
            "case": c.case,
            "parameters": c.parameters,
            "verdict": "pass" if c.verdict else "fail",
            "elapsed_ms": round(c.elapsed_ms, 3),
        }
        if c.witness is not None:
            case["witness"] = c.witness
        cases.append(case)
    return {**report._header(), "cases": cases}


def report_fingerprint(report: Report) -> list[dict]:
    out = []
    for case in report_json(report)["cases"]:
        case = dict(case)
        case.pop("elapsed_ms")
        out.append(case)
    return out


def test_verify_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(suite="nonsense")
    # the suites that form xi images check degrees 3..trunc, a window that
    # xi needs to be at least 2 wide
    for suite in ("prop4", "level-a1", "fe"):
        with pytest.raises(ValueError, match=f"suite {suite} needs trunc >= 4, got 3"):
            VerifyConfig(suite=suite, trunc=3)
        assert VerifyConfig(suite=suite, trunc=4).trunc == 4
    # no suite reads a window: the image suites derive theirs from trunc,
    # and a run has no window to set
    assert "window" not in {f.name for f in dataclasses.fields(VerifyConfig)}
    for suite in cli._SUITES:
        with pytest.raises(TypeError, match="window"):
            VerifyConfig(suite=suite, window=4)
    with pytest.raises(ValueError):
        VerifyConfig(suite="dims", trials=0)
    with pytest.raises(ValueError):
        VerifyConfig(suite="unramified", mode="approximate")
    for rank in ({"n": 0}, {"r": 0}, {"r": -1}):  # 0 used to mean the default grid
        with pytest.raises(ValueError):
            VerifyConfig(suite="kernel", **rank)
    # a negative gap is refused as a negative rank is, not as a suite with no cases
    for suite in ("dims", "oldform-bases"):
        with pytest.raises(ValueError, match="need max_gap >= 0, got -1"):
            VerifyConfig(suite=suite, max_gap=-1)
    assert VerifyConfig(suite="oldform-bases", max_gap=0).max_gap == 0
    with pytest.raises(ValueError, match="suite gsp4-raising needs trunc >= 0, got -1"):
        VerifyConfig(suite="gsp4-raising", trunc=-1)
    cfg = VerifyConfig(suite="kernel")
    assert cfg.trials == 50  # suite default fills in
    assert (cfg.trunc, cfg.seed, cfg.mode) == (8, 42, "evaluation")
    # the schema-1 report still echoes the window that no suite reads
    assert Report("kernel", cfg, [])._header()["config"]["window"] == 4
    # a suite that reads no window takes a truncation below the default one
    assert VerifyConfig(suite="gsp4-raising", trunc=3).trunc == 3


# the suites that draw nothing, or draw once whatever the trial count
@pytest.mark.parametrize(
    "suite, options",
    [
        ("dims", ["--trials", "--seed"]),
        ("level-a1", ["--trials"]),
        ("oldform-bases", ["--trials", "--seed"]),
        ("dependence", ["--trials", "--seed"]),
    ],
)
def test_trials_and_seed_are_refused_where_no_case_reads_them(suite, options):
    for option in options:
        name = option.removeprefix("--")
        with pytest.raises(ValueError, match=f"suite {suite} does not read {option}$"):
            VerifyConfig(suite=suite, **{name: 3})
        with pytest.raises(SystemExit) as info:
            main(["verify", suite, option, "3"])
        assert info.value.code == f"paramodular: suite {suite} does not read {option}"
    # the default report still echoes both, as the suite's own values
    cfg = VerifyConfig(suite=suite)
    assert (cfg.trials, cfg.seed) == (1, 42)


def test_each_suite_reads_the_options_that_shape_its_verdicts():
    # 35 (suite, option) pairs, where every suite used to accept --trials,
    # --seed and, in three suites, --window as well: 40 for the first ten
    reads = {name: set(suite.reads) for name, suite in cli._SUITES.items()}
    assert sum(map(len, reads.values())) == 35
    draws = {name for name, names in reads.items() if {"trials", "seed"} <= names}
    assert draws == {"unramified", "psi-modes", "gsp4-raising", "eta-lemma", "prop4", "kernel", "fe"}
    assert {name for name, names in reads.items() if "seed" in names} == draws | {"level-a1"}
    assert not any("window" in names for names in reads.values())


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_window_is_not_an_option_of_verify(suite, capsys):
    # each suite's window was set by hand; the image suites derive theirs
    with pytest.raises(SystemExit) as info:
        main(["verify", suite, "--window", "4"])
    assert info.value.code == 2
    assert "unrecognized arguments: --window 4" in capsys.readouterr().err


def test_readme_commands_parse():
    # README's command lines, those of its sh blocks and its one-line inline
    # spans, parsed as main parses them; a verify line also builds its
    # config, which refuses an option the suite does not read.  Nothing runs.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    shown = [line for block in blocks for line in block.splitlines() if line.startswith("paramodular ")]
    inline = re.findall(r"`(paramodular [a-z][^`\n]*)`", text)
    assert len(shown) >= 14 and inline
    parser = cli.build_parser()
    fields = dataclasses.fields(VerifyConfig)
    for line in shown + inline:
        argv = cli._join_signed_values(shlex.split(line, comments=True)[1:])
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        if args.command == "verify":
            VerifyConfig(**{f.name: getattr(args, f.name, None) for f in fields})


SMOKE_CONFIGS = [
    VerifyConfig(suite="unramified", n=2, trials=1),
    VerifyConfig(suite="gsp4-raising", trials=2, trunc=6),
    VerifyConfig(suite="eta-lemma", trials=1, trunc=6),
    VerifyConfig(suite="dims", n=3, max_gap=4),
    VerifyConfig(suite="prop4", trials=1),
    VerifyConfig(suite="level-a1"),
    VerifyConfig(suite="oldform-bases", max_gap=2),
    VerifyConfig(suite="dependence"),
    VerifyConfig(suite="kernel", trials=3),
    VerifyConfig(suite="fe", trials=1),
]


@pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda c: c.suite)
def test_every_suite_passes_smoke(config):
    report = run_suite(config)
    assert report.cases, "suite produced no cases"
    failures = [c.case for c in report.cases if not c.verdict]
    assert report.all_passed, failures


def test_reports_are_deterministic():
    cfg = {"suite": "gsp4-raising", "trials": 2, "trunc": 6}
    first = run_suite(VerifyConfig(**cfg))
    second = run_suite(VerifyConfig(**cfg))
    assert report_fingerprint(first) == report_fingerprint(second)


def test_parallel_run_matches_serial(monkeypatch):
    cfg = {"suite": "dims", "n": 3, "max_gap": 3}
    serial = run_suite(VerifyConfig(**cfg))
    monkeypatch.setenv("PARAMODULAR_JOBS", "2")
    parallel = run_suite(VerifyConfig(**cfg))
    assert report_fingerprint(serial) == report_fingerprint(parallel)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    chunk size of each map, and maps in this process, so that no worker
    starts."""

    def __init__(self, started, chunksizes, max_workers):
        started.append(max_workers)
        self.chunksizes = chunksizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, items)


def stub_pool(monkeypatch, cpus):
    """Returns the lists of worker counts started and chunk sizes mapped."""
    started, chunksizes = [], []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(started, chunksizes, max_workers),
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return started, chunksizes


@pytest.mark.parametrize("value, workers", [("1", []), ("2", [2]), ("3", [3]), ("64", [3])])
def test_jobs_are_capped_at_usable_cpus(monkeypatch, value, workers):
    started, _ = stub_pool(monkeypatch, cpus=3)
    monkeypatch.setenv("PARAMODULAR_JOBS", value)
    assert run_suite(VerifyConfig(suite="dims", n=2, max_gap=2)).all_passed
    assert started == workers


@pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-2", " 1_0", "1_0", " 2", "+2"])
def test_bad_jobs_value_exits_with_one_line(monkeypatch, value):
    started, _ = stub_pool(monkeypatch, cpus=3)
    monkeypatch.setenv("PARAMODULAR_JOBS", value)
    with pytest.raises(SystemExit) as info:
        main(["verify", "dims", "--max-gap", "1"])
    message = str(info.value.code)
    assert "PARAMODULAR_JOBS" in message and repr(value) in message
    assert "\n" not in message
    assert started == []


@pytest.mark.parametrize("trials, chunksize", [(40, 1), (1000, 23)])
def test_long_suites_go_to_the_pool_in_chunks(monkeypatch, trials, chunksize):
    # 120 cases go one at a time; 3000 go in chunks of 3000 // (64 * 2)
    _, chunksizes = stub_pool(monkeypatch, cpus=2)
    monkeypatch.setattr(cli, "_run_case", lambda config, params: None)
    monkeypatch.setenv("PARAMODULAR_JOBS", "2")
    run_suite(VerifyConfig(suite="gsp4-raising", trials=trials))
    assert chunksizes == [chunksize]


def test_chunked_pool_run_matches_serial(monkeypatch):
    # 258 cases on two real workers go in chunks of two; in both suites a
    # chunk boundary splits trials whose cases share their draws
    chunksizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1):
            chunksizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize)

    for cfg in (
        {"suite": "gsp4-raising", "trials": 86, "trunc": 6},
        {"suite": "fe", "trials": 43, "trunc": 6},
    ):
        monkeypatch.delenv("PARAMODULAR_JOBS", raising=False)
        serial = run_suite(VerifyConfig(**cfg))
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setenv("PARAMODULAR_JOBS", "2")
            chunksizes.clear()
            parallel = run_suite(VerifyConfig(**cfg))
        assert chunksizes == [2]
        assert report_fingerprint(serial) == report_fingerprint(parallel)


def spy_on(monkeypatch, *names):
    """Replace each named function of cli with a spy that counts its calls
    and returns what the function returns; returns the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    return calls


def test_cases_of_one_trial_share_their_draws(monkeypatch):
    # one fe trial has three distinct images (spherical, raised +1 and -1)
    # of one spherical vector; one gsp4-raising trial draws one datum and
    # needs its Schur coordinates plus those of one moved datum per operator
    calls = spy_on(monkeypatch, "xi", "spherical_so_data")
    report = run_suite(VerifyConfig(suite="fe", trials=1))
    assert report.all_passed and len(report.cases) == 6
    assert calls == {"xi": 3, "spherical_so_data": 1}
    calls = spy_on(monkeypatch, "random_whittaker_data", "psi_alternant")
    report = run_suite(VerifyConfig(suite="gsp4-raising", trials=1))
    assert report.all_passed and len(report.cases) == 3
    assert calls == {"random_whittaker_data": 1, "psi_alternant": 4}


def test_the_eta_lemma_draws_no_point(monkeypatch):
    # each case takes the Schur coordinates of its drawn datum and of that
    # datum's depth shift, and evaluates nothing
    calls = spy_on(monkeypatch, "psi_alternant", "eta_data", "EvaluationMode")
    report = run_suite(VerifyConfig(suite="eta-lemma", trials=3))
    assert report.all_passed and len(report.cases) == 3
    assert calls == {"psi_alternant": 6, "eta_data": 3, "EvaluationMode": 0}


def test_psi_modes_sees_a_torus_sum_fault_that_unramified_does_not(monkeypatch):
    # evaluation psi with every v-exponent above the lowest one lowered by
    # one: spherical data put all of psi_l at one v-exponent, so unramified
    # passes, while the random data of psi-modes show it at the first degree
    torus_sum = EvaluationMode._torus_sum

    def spared(self, weights, den):
        lo = min(0, *[e + w for _, w, terms in weights for e, _ in terms])
        shifted = [(s, w, [(e - (e + w > lo), x) for e, x in terms]) for s, w, terms in weights]
        return torus_sum(self, shifted, den)

    monkeypatch.setattr(EvaluationMode, "_torus_sum", spared)
    assert run_suite(VerifyConfig(suite="unramified")).all_passed
    report = run_suite(VerifyConfig(suite="psi-modes"))
    failed = [c for c in report.cases if not c.verdict]
    assert len(failed) >= len(report.cases) // 2
    assert all(set(c.witness) == {"coefficient", "expected", "got"} for c in failed)
    assert all(set(c.parameters) == {"n", "r", "trial", "point", "v"} for c in report.cases)


def test_psi_modes_sees_a_fault_in_the_packed_psi(monkeypatch):
    # symbolic psi, the packed psi that xi, unramified and kernel read, with
    # the v-power w of every weight dropped from its rule: evaluation psi
    # keeps w, so the two modes part at the first degree with a weight
    psi_rule = rankin._psi_rule

    @functools.cache
    def without_w(n, r):
        rule = psi_rule(n, r)

        def dropped(lam):
            image = rule(lam)
            return None if image is None else (*image[:2], 0, *image[3:])

        return dropped

    monkeypatch.setattr(rankin, "_psi_rule", without_w)
    report = run_suite(VerifyConfig(suite="psi-modes"))
    failed = [c for c in report.cases if not c.verdict]
    assert len(failed) >= len(report.cases) // 2
    assert all(set(c.witness) == {"coefficient", "expected", "got"} for c in failed)


def test_symbolic_xi_and_unramified_invert_nothing_and_build_no_p_phi(monkeypatch):
    # xi multiplies psi by the r factors of P_phi and by the geometric
    # inverses of the factors of P_wedge2, and symbolic unramified by the r
    # factors of P_phi, each in one pass: no series is inverted and P_phi
    # is never formed, which the pass would do if it applied P_phi's
    # factors (those of Y-degree 1) to the unit series (packed, as the
    # symbolic pass takes it)
    calls = {"invert": 0, "P_phi passes": 0, "P_phi passes on 1": 0}
    invert, times = rings.TruncSeries.invert, SymbolicMode._times

    def spy_invert(*args):
        calls["invert"] += 1
        return invert(*args)

    def spy_times(self, packed, factors, *args):
        if any(y == 1 for y, *_ in factors):
            calls["P_phi passes"] += 1
            calls["P_phi passes on 1"] += packed.series(None).coeffs == {0: self.one()}
        return times(self, packed, factors, *args)

    monkeypatch.setattr(rings.TruncSeries, "invert", spy_invert)
    monkeypatch.setattr(SymbolicMode, "_times", spy_times)
    xi_calls = spy_on(monkeypatch, "xi")
    report = run_suite(VerifyConfig(suite="fe", trials=1))
    assert report.all_passed and xi_calls == {"xi": 3}
    report = run_suite(VerifyConfig(suite="unramified", mode="symbolic", trials=1))
    assert report.all_passed and len(report.cases) == 6
    # three pairs i < j, so three geometric factors; in both modes
    beta = (Fraction(2), Fraction(-3, 5), Fraction(7, 4))
    d = spherical_so_data(beta, 3, 6)
    point = EvaluationMode(3, (Fraction(1, 2), Fraction(-3), Fraction(5, 7)), Fraction(-2, 3))
    for mode in (None, point):
        res = xi(d, 3, 3, beta=beta, mode=mode, trunc=6)
        assert res.stabilized and res.poly == 1
    # one pass per symbolic xi (three in fe, one here) and unramified case
    assert calls == {"invert": 0, "P_phi passes": 10, "P_phi passes on 1": 0}


def test_xi_p_wedge2_and_symbolic_unramified_form_no_series_product(monkeypatch):
    # every factor product goes through the mode's pass, so with
    # TruncSeries.__mul__ gone xi and P_wedge2 run in both modes, and so
    # does the symbolic unramified suite
    beta = (Fraction(2), Fraction(-3, 5), Fraction(7, 4))
    d = spherical_so_data(beta, 3, 6)
    point = EvaluationMode(3, (Fraction(1, 2), Fraction(-3), Fraction(5, 7)), Fraction(-2, 3))
    monkeypatch.setattr(rings.TruncSeries, "__mul__", None)
    for mode in (SymbolicMode(3), point):
        wedge = rankin.p_wedge2(3, mode, 8)
        assert (wedge.trunc, max(wedge.coeffs), wedge.get(0)) == (8, 6, 1)
        res = xi(d, 3, 3, beta=beta, mode=mode, trunc=6)
        assert res.stabilized and res.poly == 1
    report = run_suite(VerifyConfig(suite="unramified", mode="symbolic", trials=1))
    assert report.all_passed and len(report.cases) == 6


def _doubled_at_2e1(beta, n, trunc):
    """The spherical data with the value at 2e_1 doubled."""
    d = spherical_so_data(beta, n, trunc)
    lam = (2,) + (0,) * (n - 1)
    return WhittakerData(n, {**dict(d.items()), lam: d.get(lam) * 2})


@pytest.mark.parametrize("mode, trials", [("evaluation", 20), ("symbolic", 3)])
def test_a_wrong_spherical_value_fails_at_the_first_degree_of_xi(monkeypatch, mode, trials):
    # P_wedge2 is a unit series, so xi - 1 = (P_phi psi - P_wedge2) / P_wedge2
    # first differs from 0 where P_phi psi first differs from P_wedge2: each
    # case names xi's first mismatching degree, and none fails for want of
    # a stabilized window
    monkeypatch.setattr(cli, "spherical_so_data", _doubled_at_2e1)
    cfg = VerifyConfig(suite="unramified", mode=mode, trials=trials)
    report = run_suite(cfg)
    assert len(report.cases) == 6 * trials
    for case in report.cases:
        n, r, t = (case.parameters[k] for k in ("n", "r", "trial"))
        rng = case_rng(cfg.seed, f"unramified:{n}:{r}:{t}")
        beta = random_beta(rng, n)
        if mode == "evaluation":
            m = EvaluationMode(r, random_point(rng, r), random_v(rng))
        else:
            m = SymbolicMode(r)
        d = _doubled_at_2e1(beta, n, cfg.trunc)
        k = xi(d, n, r, beta=beta, mode=m, trunc=cfg.trunc).series.first_mismatch(
            unit_series(m), cfg.trunc
        )
        assert not case.verdict and k is not None
        assert set(case.witness) == {"coefficient", "expected", "got"}
        assert case.witness["coefficient"] == k, case.case


def test_the_unramified_check_inverts_no_series(monkeypatch):
    calls = spy_on(monkeypatch, "xi")
    inverted = []
    invert = rings.TruncSeries.invert

    def spy(self, trunc):
        inverted.append(trunc)
        return invert(self, trunc)

    monkeypatch.setattr(rings.TruncSeries, "invert", spy)
    report = run_suite(VerifyConfig(suite="unramified", trials=2))
    assert report.all_passed and len(report.cases) == 12
    assert calls == {"xi": 0} and inverted == []


@pytest.mark.parametrize("mode", ["evaluation", "symbolic"])
@pytest.mark.parametrize("trunc", [0, 1, 2, 3])
def test_unramified_passes_below_the_default_window(mode, trunc):
    # truncations that the window rule refused while unramified formed xi
    report = run_suite(VerifyConfig(suite="unramified", mode=mode, trunc=trunc, trials=2))
    assert report.all_passed and len(report.cases) == 12


def _series_path_witness(d, moved, factor, trunc):
    """The witness that comparing the two series gives: the first
    mismatching coefficient of psi(moved) and psi(d) times factor, at the
    rank r of the factor."""
    n, r = d.n, factor.r
    mode = SymbolicMode(r)
    lhs = psi_series(moved, n, r, trunc, mode)
    rhs = psi_series(d, n, r, trunc, mode) * cli._series_factor(factor)
    k = lhs.first_mismatch(rhs, trunc)
    if k is None:
        return None
    return {"coefficient": k, "expected": str(rhs.get(k)), "got": str(lhs.get(k))}


# SHA-256 of each planted-fault report below, every elapsed_ms removed, as
# first recorded: the witnesses are pinned byte for byte, apart from the
# series path they are compared with
PLANTED_FAULT_SHA256 = {
    "gsp4-raising": "0ea824dc79fc5c7c8b82a0ed17cd3edc903cd5cfa19db4786561906bbe496c12",
    "prop4": "1cfdf59af3fabcfa2921b9f0afb4056292bce6408a773c0d1298d044e201f4c2",
    "eta-lemma": "0c6d5f1379351587aabcc1a4beea5bf923a481aaf874cabd1bc16079c5a44685",
}


def _report_sha256(report: Report) -> str:
    blob = json.loads(emit(report, "json"))
    for case in blob["cases"]:
        del case["elapsed_ms"]
    return hashlib.sha256(json.dumps(blob, indent=2, sort_keys=True).encode()).hexdigest()


def test_a_wrong_move_fails_with_the_witness_of_the_series_path(monkeypatch):
    # theta's symbol without its q: the Schur coordinates see it, and the
    # witness is the one the series comparison reports, byte for byte
    monkeypatch.setattr(whittaker, "_THETA", SymLaurent(2, {(1, 0): 1, (0, 1): 1}))
    cfg = VerifyConfig(suite="gsp4-raising", trials=8)
    report = run_suite(cfg)
    assert _report_sha256(report) == PLANTED_FAULT_SHA256["gsp4-raising"]
    failed = 0
    for case in report.cases:
        op, t = case.parameters["operator"], case.parameters["trial"]
        if op != "theta":
            assert case.verdict, case.witness
            continue
        d = cli._random_data(case_rng(cfg.seed, f"gsp4-raising:{t}"), 2)
        want = _series_path_witness(d, theta_data(d), oldforms.theta_factor(), cfg.trunc)
        assert json.dumps(case.witness) == json.dumps(want)
        failed += not case.verdict
    assert failed >= 4
    # prop4's zeta endpoints, the r = 1 identities, where X_2 = 0 in the
    # factor: theta's X_1 term doubled
    monkeypatch.setattr(whittaker, "_THETA", SymLaurent(2, {(1, 0): 2, (0, 1): cli._Q}))
    cfg = VerifyConfig(suite="prop4", trials=3)
    report = run_suite(cfg)
    assert _report_sha256(report) == PLANTED_FAULT_SHA256["prop4"]
    zeta = [c for c in report.cases if c.parameters["check"] == "zeta-theta"]
    low = oldforms.theta_factor().substitute_last_zero()
    for case in zeta:
        d = cli._random_data(case_rng(cfg.seed, f"prop4:zeta:{case.parameters['trial']}"), 2)
        want = _series_path_witness(d, theta_data(d), low, cfg.trunc)
        assert not case.verdict and json.dumps(case.witness) == json.dumps(want)
    assert len(zeta) == 3
    # the eta lemma, against a factor without its q-power
    cfg = VerifyConfig(suite="eta-lemma", trials=3)
    wrong = SymLaurent.monomial(3, (1, 1, 1))
    monkeypatch.setattr(cli, "depth_shift_factor", lambda n: wrong)
    report = run_suite(cfg)
    assert _report_sha256(report) == PLANTED_FAULT_SHA256["eta-lemma"]
    for case in report.cases:
        d = cli._random_data(case_rng(cfg.seed, f"eta-lemma:3:{case.parameters['trial']}"), 3)
        want = _series_path_witness(d, eta_data(d), wrong, cfg.trunc)
        assert not case.verdict and json.dumps(case.witness) == json.dumps(want)


def _strictly_decreasing(e) -> bool:
    return all(a > b for a, b in zip(e, e[1:]))


def test_every_move_factor_meets_the_schur_coordinate_precondition():
    # _times_coordinates is exact only for symmetric factors with X-exponents
    # 0 and 1: the factors of gsp4-raising, eta-lemma (depth_shift_factor at
    # the suite's n) and prop4's zeta endpoints (X_r = 0 in a move's factor)
    factors = [factor for _, factor in cli._MOVES.values()]
    factors += [cli.depth_shift_factor(n) for n in range(1, 9)]
    factors += [factor.substitute_last_zero() for factor in factors]
    for factor in factors:
        assert all(a in (0, 1) for e in factor.c for a in e), factor
        assert factor._symmetric()
        # accepted, at f = 1, whose coordinates are X^delta: F's own are
        # a_delta F at its strictly decreasing keys
        delta = SymLaurent.monomial(factor.r, range(factor.r - 1, -1, -1))
        want = {e: c for e, c in (delta * factor).c.items() if _strictly_decreasing(e)}
        assert cli._times_coordinates(delta, factor, 8) == SymLaurent(factor.r, want)


def test_coordinates_that_disagree_with_the_series_fail_the_case(monkeypatch):
    # a kernel fault that the series path does not share: no mismatching
    # coefficient to report, so the case says which paths disagree
    times = cli._times_coordinates

    def off(psi, factor, top):
        return times(psi, factor, top) + SymLaurent(psi.r, {tuple(range(psi.r, 0, -1)): 1})

    monkeypatch.setattr(cli, "_times_coordinates", off)
    reason = {"reason": "Schur coordinates and series disagree"}
    cases = [
        (VerifyConfig(suite="gsp4-raising"), {"trial": 0, "operator": "theta-prime"}),
        (VerifyConfig(suite="eta-lemma"), {"n": 3, "trial": 0}),
        (VerifyConfig(suite="prop4"), {"check": "zeta-theta", "n": 2, "trial": 0}),
    ]
    for cfg, params in cases:
        record = cli._run_case(cfg, params)
        assert not record.verdict and record.witness == reason


def test_shared_values_do_not_outlive_run_suite(monkeypatch):
    # an image computed in one run must stand in neither for a case run
    # directly nor for a later run; here both must see a perturbed xi
    cfg = VerifyConfig(suite="fe", trials=1)
    assert run_suite(cfg).all_passed
    x1 = SymLaurent.monomial(2, (1, 0))
    xi, calls = cli.xi, []

    def perturbed(*args, **kwargs):
        calls.append(args)
        res = xi(*args, **kwargs)
        return dataclasses.replace(res, poly=res.poly + x1)

    monkeypatch.setattr(cli, "xi", perturbed)
    record = cli._run_case(cfg, {"check": "spherical", "trial": 0})
    assert len(calls) == 1 and not record.verdict
    report = run_suite(cfg)
    assert len(calls) == 4 and not report.all_passed
    # only the mismatched pair of negative-control still fails to match
    passed = [c.parameters["check"] for c in report.cases if c.verdict]
    assert passed == ["negative-control"]


# Each input ends in a ValueError or OSError inside its subcommand; "{dir}"
# is a directory holding the data files.
BAD_INPUTS = {
    "schur-not-decreasing": ["char", "schur", "--lam", "1,2"],
    "xi-r-above-n": ["xi", "--data", "{dir}/n2.json", "--r", "3"],
    "xi-out-of-cone": ["xi", "--data", "{dir}/out-of-cone.json", "--r", "2"],
    "xi-missing-file": ["xi", "--data", "{dir}/missing.json", "--r", "2"],
    "xi-empty-object": ["xi", "--data", "{dir}/empty.json", "--r", "2"],
    "xi-entry-without-value": ["xi", "--data", "{dir}/no-value.json", "--r", "2"],
    "xi-zero-denominator": ["xi", "--data", "{dir}/zero-denominator.json", "--r", "2"],
    "xi-top-level-list": ["xi", "--data", "{dir}/list.json", "--r", "2"],
    "xi-beta-zero-denominator": ["xi", "--data", "{dir}/n2.json", "--r", "2", "--beta", "1/0,2"],
    "xi-negative-level": ["xi", "--data", "{dir}/n2.json", "--r", "2", "--level", "-3"],
    # the rank is checked before a mode of r variables is built
    "xi-r-negative": ["xi", "--data", "{dir}/n2.json", "--r", "-1"],
    "gap-out-of-range": ["compare-bases", "--m-minus-a", "7"],
    "prop4-trunc-below-four": ["verify", "prop4", "--trunc", "3"],
    "level-a1-trunc-below-four": ["verify", "level-a1", "--trunc", "3"],
    "fe-trunc-below-four": ["verify", "fe", "--trunc", "3", "--trials", "1"],
    "no-cases": ["verify", "unramified", "--n", "2", "--r", "3"],
    "no-gaps": ["verify", "oldform-bases", "--max-gap", "-1"],
    "oldform-bases-gap-above-four": ["verify", "oldform-bases", "--max-gap", "5"],
    "n-zero": ["verify", "kernel", "--n", "0", "--trials", "1"],
    "r-zero": ["verify", "unramified", "--r", "0", "--trials", "1"],
    "eta-lemma-r": ["verify", "eta-lemma", "--r", "2", "--trials", "1"],
    "level-a1-n-r": ["verify", "level-a1", "--n", "5", "--r", "7"],
    "dependence-n": ["verify", "dependence", "--n", "9"],
    "gsp4-raising-r": ["verify", "gsp4-raising", "--r", "2", "--trials", "1"],
    "oldform-bases-n": ["verify", "oldform-bases", "--n", "2", "--max-gap", "0"],
    "fe-n": ["verify", "fe", "--n", "2", "--trials", "1"],
    "fe-max-gap": ["verify", "fe", "--max-gap", "2", "--trials", "1"],
    "unramified-max-gap": ["verify", "unramified", "--max-gap", "1", "--n", "1", "--trials", "1"],
    "gsp4-raising-mode": ["verify", "gsp4-raising", "--mode", "symbolic", "--trials", "1"],
    "fe-mode": ["verify", "fe", "--mode", "evaluation", "--trials", "1"],
    "eta-lemma-mode": ["verify", "eta-lemma", "--mode", "symbolic", "--trials", "1"],
    "oldform-bases-trunc": ["verify", "oldform-bases", "--trunc", "3", "--max-gap", "0"],
    "dims-trunc": ["verify", "dims", "--trunc", "5", "--n", "1", "--max-gap", "0"],
    "kernel-trunc": ["verify", "kernel", "--trunc", "5", "--n", "2", "--trials", "1"],
    # the JSON numbers must be integers (or, for coefficients, strings);
    # each was once read as something else
    "xi-fractional-weight": ["xi", "--data", "{dir}/fractional-weight.json", "--r", "1"],
    "xi-boolean-rank": ["xi", "--data", "{dir}/boolean-rank.json", "--r", "1"],
    "xi-float-coefficient": ["xi", "--data", "{dir}/float-coefficient.json", "--r", "1"],
    # an exponent key int() reads as another exponent, a padded key that
    # collides with a canonical one, and a repeated weight: each value was
    # once kept or dropped silently
    "xi-exponent-separator": ["xi", "--data", "{dir}/exponent-separator.json", "--r", "2"],
    "xi-exponent-leading-zero": ["xi", "--data", "{dir}/exponent-leading-zero.json", "--r", "2"],
    "xi-repeated-lambda": ["xi", "--data", "{dir}/repeated-lambda.json", "--r", "2"],
    # a key repeated in one JSON object, which json.load resolves to the last
    "xi-repeated-json-key": ["xi", "--data", "{dir}/repeated-json-key.json", "--r", "2"],
    # prop4 without a specialize case would pass on its zeta and xi checks
    "prop4-n-one": ["verify", "prop4", "--n", "1", "--trials", "1"],
    "prop4-r-one": ["verify", "prop4", "--r", "1", "--trials", "1"],
    "prop4-r-above-n": ["verify", "prop4", "--n", "2", "--r", "3", "--trials", "1"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_with_one_line(tmp_path, argv):
    entry = {"lambda": [1, 0], "value": {"0": "1/1"}}
    outside = {**entry, "lambda": [0, 1]}
    payloads = {
        "n2": {"n": 2, "entries": [entry]},
        "out-of-cone": {"n": 2, "entries": [outside]},
        "empty": {},
        "no-value": {"n": 2, "entries": [{"lambda": [1, 0]}]},
        "zero-denominator": {"n": 2, "entries": [{**entry, "value": {"0": "1/0"}}]},
        "list": [{"n": 2, "entries": [entry]}],
        "fractional-weight": {"n": 2, "entries": [{**entry, "lambda": [1.5, 0]}]},
        "boolean-rank": {"n": True, "entries": [{**entry, "lambda": [True]}]},
        "float-coefficient": {"n": 2, "entries": [{**entry, "value": {"0": 0.1}}]},
        "exponent-separator": {"n": 2, "entries": [{**entry, "value": {"1_0": "1", " 2 ": 3}}]},
        "exponent-leading-zero": {"n": 2, "entries": [{**entry, "value": {"1": "1", "01": "2"}}]},
        "repeated-lambda": {"n": 2, "entries": [entry, {**entry, "value": {"0": "2"}}]},
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    # json.dumps cannot write a repeated key
    (tmp_path / "repeated-json-key.json").write_text(
        '{"n": 2, "entries": [{"lambda": [1, 0], "value": {"0": "1", "0": "5"}}]}'
    )
    src = str(Path(paramodular.__file__).parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from paramodular.cli import main; sys.exit(main(sys.argv[1:]))",
            *(arg.format(dir=tmp_path) for arg in argv),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "PARAMODULAR_JOBS": "1"},
        timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("paramodular: "), proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("lam, entry", [("1,a", "'a'"), ("", "''")], ids=["letter", "empty"])
def test_bad_lam_entry_names_the_flag(lam, entry):
    with pytest.raises(SystemExit) as info:
        main(["char", "schur", "--lam", lam])
    message = str(info.value.code)
    assert message.startswith("paramodular: ") and "\n" not in message
    assert "--lam" in message and entry in message


@pytest.mark.parametrize(
    "lam, entry",
    [("1_0", "'1_0'"), (" 2", "' 2'"), ("+2", "'+2'")],
    ids=["digit-separator", "padded", "plus-sign"],
)
def test_lam_entries_are_read_strictly(lam, entry, capsys):
    # int() would read each of these as a number: (10), (2) and (2)
    with pytest.raises(SystemExit) as info:
        main(["char", "schur", "--lam", lam])
    message = str(info.value.code)
    assert message.startswith("paramodular: ") and "\n" not in message
    assert "--lam" in message and entry in message
    assert capsys.readouterr().out == ""


INTEGER_FLAGS = [
    ["verify", "dims", "--n"],
    ["verify", "kernel", "--r"],
    ["verify", "gsp4-raising", "--trunc"],
    ["verify", "fe", "--trials"],
    ["verify", "fe", "--seed"],
    ["verify", "dims", "--max-gap"],
    ["xi", "--data", "data.json", "--r"],
    ["xi", "--data", "data.json", "--r", "2", "--trunc"],
    ["xi", "--data", "data.json", "--r", "2", "--window"],
    ["xi", "--data", "data.json", "--r", "2", "--level"],
    ["compare-bases", "--m-minus-a"],
]


@pytest.mark.parametrize(
    "value", ["1_0", " 1", "+1"], ids=["digit-separator", "padded", "plus-sign"]
)
@pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=" ".join)
def test_integer_flags_are_read_strictly(argv, value, capsys):
    # int() would read each of these as a number, as it read
    # "verify dims --n 1_0" as n = 10; the flags take what --lam takes
    with pytest.raises(SystemExit) as info:
        main([*argv, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {argv[-1]}: invalid integer value: {value!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "beta, entry",
    [("1_0, 2", "'1_0'"), (" 2", "' 2'"), ("+2", "'+2'"), ("2,3/2 ", "'3/2 '"), ("1.5", "'1.5'")],
    ids=["digit-separator", "padded", "plus-sign", "trailing-space", "decimal"],
)
def test_beta_entries_are_read_strictly(tmp_path, beta, entry, capsys):
    # Fraction() would read each of these as a number
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"n": 2, "entries": [{"lambda": [1, 0], "value": {"0": "1"}}]}))
    with pytest.raises(SystemExit) as info:
        main(["xi", "--data", str(data), "--r", "2", "--beta", beta])
    assert info.value.code == f"paramodular: --beta entry {entry} is not a rational number"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "orbit", "--lam", "-1,0"],
        ["char", "schur", "--lam", "-1,-2"],
        ["char", "schur", "--la", "-2,-3"],
        ["xi", "--data", "{data}", "--r", "2", "--beta", "-2,3/2"],
    ],
    ids=["orbit", "schur", "abbreviated", "xi-beta"],
)
def test_a_value_may_start_with_a_minus_sign(tmp_path, argv, capsys):
    # argparse alone reads "-1,0" as an unknown option and exits 2
    data = tmp_path / "data.json"
    data.write_text(json.dumps(spherical_so_data(BETA2, 2, 4).to_json()))
    argv = [arg.format(data=data) for arg in argv]
    assert main(argv) == 0
    spaced = capsys.readouterr().out
    assert main([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == 0
    assert capsys.readouterr().out == spaced
    if argv[0] == "char":
        assert json.loads(spaced)["lam"] == [int(x) for x in argv[-1].split(",")]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["char", "orbit", "--lam", "40000,0"], None),
        (["char", "schur", "--lam", "20000,0,0"], None),
        (["xi", "--data", "{dir}/lambda.json", "--r", "1"], None),
        (["xi", "--data", "{dir}/value.json", "--r", "1"], "entries[0]"),
    ],
    ids=["orbit", "schur", "xi-lambda", "xi-value"],
)
def test_an_exponent_past_the_packed_limit_is_bad_input(tmp_path, argv, field, capsys):
    # each ended in an OverflowError traceback
    for name, entry in (
        ("lambda", {"lambda": [40000], "value": {"0": "1"}}),
        ("value", {"lambda": [1], "value": {"40000": "1"}}),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": 1, "entries": [entry]}))
    with pytest.raises(SystemExit) as info:
        main([arg.format(dir=tmp_path) for arg in argv])
    message = str(info.value.code)
    assert message.startswith("paramodular: ") and "\n" not in message
    assert "exceeds the packed field limit" in message
    if field is not None:
        assert f"bad Whittaker data at {field}:" in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "n, lam, reason",
    [
        (1, [40000], "exceeds the packed field limit"),
        (2, [0, 1], "support coweight (0, 1) outside the dominant cone"),
    ],
    ids=["past-the-limit", "out-of-cone"],
)
def test_a_bad_weight_names_its_entry(tmp_path, n, lam, reason, capsys):
    # both errors used to come from building the data after the entries
    # were read, so neither named one
    data = tmp_path / "data.json"
    entries = [{"lambda": [0] * n, "value": {"0": "1"}}, {"lambda": lam, "value": {"0": "1"}}]
    data.write_text(json.dumps({"n": n, "entries": entries}))
    with pytest.raises(SystemExit) as info:
        main(["xi", "--data", str(data), "--r", "1"])
    message = str(info.value.code)
    assert message.startswith("paramodular: bad Whittaker data at entries[1]: ")
    assert reason in message and "\n" not in message
    assert capsys.readouterr().out == ""


def test_a_case_that_overflows_fails_with_a_witness(monkeypatch):
    def past_the_limit(d):
        return d.scale(VLaurent.v_power(rings._LIMIT)).scale(VLaurent.v_power(1))

    monkeypatch.setattr(cli, "theta_data", past_the_limit)
    record = cli._run_case(VerifyConfig(suite="gsp4-raising"), {"trial": 0, "operator": "theta"})
    assert not record.verdict
    assert record.witness["error"].startswith("OverflowError: ")


def test_moves_are_looked_up_at_call_time(monkeypatch):
    # a rebinding of cli.theta_data (as a tracer makes) must reach every
    # suite that applies the theta move
    calls = []
    theta_data = cli.theta_data

    def spy(d):
        calls.append(d)
        return theta_data(d)

    monkeypatch.setattr(cli, "theta_data", spy)
    cases = [
        ("gsp4-raising", {"trial": 0, "operator": "theta"}),
        ("prop4", {"check": "zeta-theta", "n": 2, "trial": 0}),
        ("level-a1", {"check": "theta"}),
    ]
    for suite, params in cases:
        seen = len(calls)
        record = cli._run_case(VerifyConfig(suite=suite), params)
        assert record.verdict, record.witness
        assert len(calls) > seen, suite


def test_emit_formats():
    report = run_suite(VerifyConfig(suite="dims", n=2, max_gap=2))
    blob = json.loads(emit(report, "json"))
    assert blob["schema"] == "paramodular-report/1"
    assert blob["all_passed"] is True
    assert blob["total"] == len(report.cases)
    text = emit(report, "text")
    assert text.startswith("suite dims:")
    assert "PASS" in text
    csv_text = emit(report, "csv")
    assert csv_text.splitlines()[0].startswith("case,verdict")
    with pytest.raises(ValueError):
        emit(report, "yaml")


def test_failing_case_shows_witness():
    cfg = VerifyConfig(suite="dims")
    record = CaseRecord("broken", {"n": 9}, False, {"reason": "boom"}, 0.5)
    report = Report("dims", cfg, [record])
    assert not report.all_passed
    blob = report_json(report)
    assert blob["failed"] == 1
    assert blob["cases"][0]["witness"] == {"reason": "boom"}
    assert "FAIL" in emit(report, "text")
    assert "boom" in emit(report, "text")


UNSTABLE = {"reason": "series did not stabilize"}


def double_the_spherical_value_at_21(monkeypatch):
    """Plant a fault: the spherical vector's value at (2, 1) doubled, so
    that no image of it is a polynomial of Y-degree <= 2."""
    make = cli.spherical_so_data

    def faulty(beta, n, trunc):
        d = make(beta, n, trunc)
        return WhittakerData(n, {lam: x + x if lam == (2, 1) else x for lam, x in d.items()})

    monkeypatch.setattr(cli, "spherical_so_data", faulty)


def test_fe_verdicts_need_stabilized_series(monkeypatch):
    double_the_spherical_value_at_21(monkeypatch)
    for trunc in (4, 8):
        report = run_suite(VerifyConfig(suite="fe", trials=2, trunc=trunc))
        assert [c.witness for c in report.cases] == [UNSTABLE] * 12


def test_level_a1_constants_need_stabilized_series(monkeypatch):
    double_the_spherical_value_at_21(monkeypatch)
    for trunc in (4, 8):
        report = run_suite(VerifyConfig(suite="level-a1", trunc=trunc))
        assert [c.witness for c in report.cases] == [UNSTABLE] * 3


@pytest.mark.parametrize("suite, trials", [("fe", {"trials": 2}), ("level-a1", {})])
@pytest.mark.parametrize("trunc", [4, 5])
def test_image_suites_pass_at_the_least_truncations(suite, trials, trunc):
    # the images have Y-degree <= 2, and the window is the degrees above
    # that: a window set by hand at 4 reached into them at trunc 4 and 5
    report = run_suite(VerifyConfig(suite=suite, trunc=trunc, **trials))
    assert report.all_passed, [(c.case, c.witness) for c in report.cases if not c.verdict]


def test_level_a1_forms_its_two_images_once(monkeypatch):
    calls = []
    real = cli.xi

    def counting(*args, **kwargs):
        calls.append(kwargs["window"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "xi", counting)
    assert run_suite(VerifyConfig(suite="level-a1", trunc=6)).all_passed
    assert calls == [4, 4]


def test_palindromic_failure_shows_expected_and_got(monkeypatch):
    # b0 stays the constant term, so the expected image is the unperturbed one
    x1 = SymLaurent.monomial(2, (1, 0))
    xi, unperturbed = cli.xi, []

    def perturbed(*args, **kwargs):
        res = xi(*args, **kwargs)
        unperturbed.append(res.poly)
        return dataclasses.replace(res, poly=res.poly + x1)

    monkeypatch.setattr(cli, "xi", perturbed)
    record = cli._run_case(VerifyConfig(suite="fe"), {"check": "palindromic-minus", "trial": 0})
    (poly,) = unperturbed
    assert not record.verdict
    assert record.witness == {"expected": str(poly), "got": str(poly + x1)}


def test_oldform_bases_catches_a_dropped_weight(monkeypatch):
    # The family and basis_cardinality enumerate the same cone, so the size
    # check must not rest on that enumeration: with the last weight dropped
    # from both, gap 4 has 8 images against a dimension of 9.  Gap 4 is
    # conditional, so no span check catches it.
    enumerate_cone = coweights.enumerate_cone

    def short(*args, **kwargs):
        return enumerate_cone(*args, **kwargs)[:-1]

    monkeypatch.setattr(oldforms, "enumerate_cone", short)
    monkeypatch.setattr(coweights, "enumerate_cone", short)
    record = cli._run_case(VerifyConfig(suite="oldform-bases"), {"m_minus_a": 4})
    assert record.parameters["conditional"]
    assert not record.verdict
    assert record.witness == {"expected": 9, "got": 8}


def test_conditional_pass_on_differing_spans_is_noted_in_text():
    def case(g, spans_equal, conditional):
        params = {"m_minus_a": g, "spans_equal": spans_equal, "conditional": conditional}
        return CaseRecord(f"m_minus_a={g}", params, True, None, 0.5)

    cases = [case(0, True, False), case(3, True, True), case(4, False, True)]
    report = Report("oldform-bases", VerifyConfig(suite="oldform-bases"), cases)
    lines = emit(report, "text").splitlines()
    note = "  note: conditional pass, spans differ"
    assert lines[1:] == [
        "  PASS  m_minus_a=0",
        "  PASS  m_minus_a=3",
        "  PASS  m_minus_a=4" + note,
    ]
    assert "note" not in emit(report, "json")


# the dimension table at its defaults (n = 1..4, gaps 0..8), byte for byte
DIMS_CSV_SHA256 = "24461ff67aafcd82cecef04c2c4d0b0fcdd1f0609ffa962aa11cf4c6b4d443b5"


def test_main_verify_and_dims_exit_zero(tmp_path, capsys):
    out = tmp_path / "dims.csv"
    assert main(["verify", "dims", "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIMS_CSV_SHA256
    # verify dims is the one route to the table
    with pytest.raises(SystemExit) as info:
        main(["dims"])
    assert info.value.code == 2
    assert "invalid choice: 'dims'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "dims", "--format", "text"],
        ["verify", "dims", "--format", "csv"],
        ["compare-bases", "--m-minus-a", "2"],
    ],
    ids=["text", "csv", "json"],
)
def test_stdout_gets_the_bytes_of_out(tmp_path, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    src = str(Path(paramodular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PARAMODULAR_JOBS": "1"}
    command = [sys.executable, "-m", "paramodular", *argv]
    proc = subprocess.run(command, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


def test_unramified_rank_four_is_a_routine_run(tmp_path):
    out = tmp_path / "unramified.json"
    rc = main(["verify", "unramified", "--n", "4", "--trials", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert [c["parameters"]["r"] for c in report["cases"]] == [1, 2, 3, 4]
    assert report["passed"] == 4 and report["all_passed"]


def test_default_specialize_cases_compare_nonzero_series():
    cfg = VerifyConfig(suite="prop4")
    cases = [c for c in _prop4_cases(cfg) if c["check"] == "specialize"]
    assert len(cases) == 60
    for c in cases:
        _, rhs = _specialize_sides(cfg, c["n"], c["r"], c["trial"])
        assert rhs.coeffs, c


def test_main_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_main_version_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_python_dash_m_runs_the_command_line():
    # the package runs as a module, with main's exit status and output
    src = str(Path(paramodular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PARAMODULAR_JOBS": "1"}
    argv = [sys.executable, "-m", "paramodular", "verify", "unramified", "--trials", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["all_passed"] and len(report["cases"]) == 6
    bad = subprocess.run(
        [*argv[:3], "char", "schur", "--lam", "1,2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert bad.returncode == 1
    assert bad.stderr.startswith("paramodular: ") and "Traceback" not in bad.stderr


def test_xi_subcommand(tmp_path):
    data = tmp_path / "data.json"
    out = tmp_path / "xi.json"
    d = spherical_so_data(BETA2, 2, 8)
    data.write_text(json.dumps(d.to_json()))
    rc = main(
        [
            "xi",
            "--data",
            str(data),
            "--r",
            "2",
            "--beta",
            "2,3/2",
            "--trunc",
            "8",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["stabilized"] is True
    assert blob["poly"] == json.loads(json.dumps(SymLaurent.one(2).to_json()))


def test_char_subcommand(tmp_path, capsys):
    out = tmp_path / "char.json"
    assert main(["char", "schur", "--lam", "2,1", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["kind"] == "schur"
    assert blob["poly"] == json.loads(json.dumps(schur((2, 1), 2).to_json()))
    assert main(["char", "sp", "--lam", "1,0", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["poly"] == json.loads(json.dumps(sp_character((1, 0), 2).to_json()))
    # without --out the polynomial goes to stdout
    assert main(["char", "orbit", "--lam", "1,1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["poly"] == json.loads(json.dumps(orbit_sum((1, 1), 2).to_json()))


def test_compare_bases_subcommand(tmp_path):
    out = tmp_path / "cmp.json"
    rc = main(["compare-bases", "--m-minus-a", "2", "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["b_rank"] == 4
    assert blob["spans_equal"] is True
    assert blob["sets_equal"] is False


# ---------------------------------------------------------------------------
# Every JSON output of cli goes through one writer that gives what
# json.dumps(value, indent=2, sort_keys=True) gives, byte for byte, on what
# the program writes: lists, dicts with str keys, case records, and str, int,
# bool, None and finite float scalars of exactly those types.  It refuses
# anything else.


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def outcome(write, value):
    """The text write gives for value, or the type of the error it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


class Colour(enum.IntEnum):
    RED = 1


class Label(str):
    def __str__(self):
        return "not this"


class Ratio(float):
    def __repr__(self):
        return "not this"


class Rows(list):
    pass


Point = collections.namedtuple("Point", "x y")


def json_trees(st):
    """Trees of the JSON values the program writes: strings with quotes,
    backslashes, control and non-ASCII characters; negative and wide ints;
    finite floats with -0.0 and rounded values; bools and None; empty and
    nested lists and dicts with string keys."""
    text = st.text(max_size=8) | st.sampled_from(
        ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", "€", "\U0001d11e", "\u2028", "\ud800"]
    )
    wide = st.integers(min_value=2**64, max_value=2**200)
    ints = st.integers() | wide | wide.map(lambda i: -i)
    floats = (
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([-0.0, 0.0, 1e-7, 1e22, 1e16, 0.1, -1.5, 5e-324, sys.float_info.max])
        | st.floats(min_value=-1e6, max_value=1e6).map(lambda x: round(x, 3))
    )
    scalars = st.none() | st.booleans() | text | ints | floats
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4),
        max_leaves=12,
    )


def test_json_writer_matches_json_dumps():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @hyp.given(json_trees(st))
    def check(value):
        assert outcome(cli._json_text, value) == outcome(dumps, value)

    check()


@pytest.mark.parametrize(
    "value",
    [
        ['"', "\\", "\x00\x1f\x7f", "\u2028", "\U0001d11e", "\ud800"],
        {"a": [{"b": [[{"c": [[]]}]]}], "d": [1, [2, [3.5, [None]]]]},
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": [[], {"f": None}]},
        {"": 1, '"': 2, "\x00": 3, "é": 4, "\u2028": 5, "\ud800": [True, False, None]},
        [-0.0, 5e-324, 1e16, 1e22, sys.float_info.max, round(2 / 3, 3), -(2**64)],
        "a lone string",
        -(2**70),
        -0.0,
        [],
    ],
)
def test_json_writer_matches_json_dumps_on_subclasses_and_edges(value):
    # edges of the written domain; list and dict subclasses are refused below
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [Fraction(1, 2), {1, 2}, {"a": [Fraction(1, 2)]}, [object()], {(1, 2): 3}, {1: 2, "1": 3}],
    ids=["fraction", "set", "nested-fraction", "object", "tuple-key", "mixed-keys"],
)
def test_json_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        dumps(value)
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize(
    "value, error",
    [
        (Colour.RED, TypeError),
        (Label("x"), TypeError),
        (Ratio(0.5), TypeError),
        (Point(1, []), TypeError),
        (Rows(["a", Rows([1])]), TypeError),
        ({"a": Rows()}, TypeError),
        (collections.OrderedDict([("b", []), ("a", {})]), TypeError),
        ((), TypeError),
        ({"a": [(1, 2)]}, TypeError),
        ({1: "int"}, TypeError),
        ({2.5: "float"}, TypeError),
        ({False: "bool"}, TypeError),
        ({None: [True, False, None]}, TypeError),
        ({Label("x"): 1}, TypeError),
        (float("nan"), ValueError),
        (float("inf"), ValueError),
        ({"a": [float("-inf")]}, ValueError),
    ],
    ids=[
        "intenum",
        "str-subclass",
        "float-subclass",
        "namedtuple",
        "list-subclass",
        "nested-list-subclass",
        "ordereddict",
        "tuple",
        "nested-tuple",
        "int-key",
        "float-key",
        "bool-key",
        "none-key",
        "str-subclass-key",
        "nan",
        "inf",
        "nested-minus-inf",
    ],
)
def test_json_writer_refuses_what_no_output_holds(value, error):
    # json.dumps writes each of these; no output of the program holds one
    dumps(value)
    with pytest.raises(error):
        cli._json_text(value)


def assert_emits_json_dumps(report: Report):
    assert emit(report, "json") == dumps(report_json(report))


@pytest.mark.parametrize("config", SMOKE_CONFIGS, ids=lambda c: c.suite)
def test_json_report_is_json_dumps_of_to_json(config):
    assert_emits_json_dumps(run_suite(config))


def test_json_report_of_failing_cases_is_json_dumps_of_to_json(monkeypatch):
    cfg = VerifyConfig(suite="dims")
    witness = {"reason": 'a "quoted" \\ witness é', "coefficient": 3, "expected": "1/2", "got": []}
    records = [
        CaseRecord("broken", {"n": 9, "beta": ["2", "3/2"]}, False, witness, 0.123456789),
        CaseRecord("held", {}, True, None, 2.0),
    ]
    report = Report("dims", cfg, records)
    assert_emits_json_dumps(report)
    assert '"elapsed_ms": 0.123,' in emit(report, "json")
    # a move that raises: the case fails with an error witness
    def broken(d):
        raise ValueError('bad "move" é')

    monkeypatch.setattr(cli, "theta_data", broken)
    report = run_suite(VerifyConfig(suite="gsp4-raising", trials=2))
    errors = [c.witness["error"] for c in report.cases if not c.verdict]
    assert errors == ['ValueError: bad "move" é'] * 2
    assert_emits_json_dumps(report)
    # a move that is wrong: the witness of the first mismatching coefficient
    monkeypatch.undo()
    monkeypatch.setattr(whittaker, "_THETA", SymLaurent(2, {(1, 0): 1, (0, 1): 1}))
    report = run_suite(VerifyConfig(suite="gsp4-raising", trials=4))
    assert any("coefficient" in (c.witness or {}) for c in report.cases)
    assert_emits_json_dumps(report)


def test_json_report_in_two_workers_is_json_dumps_of_to_json(monkeypatch):
    monkeypatch.setenv("PARAMODULAR_JOBS", "2")
    assert_emits_json_dumps(run_suite(VerifyConfig(suite="gsp4-raising", trials=20)))


def test_json_report_of_3000_cases_is_json_dumps_of_to_json():
    report = run_suite(VerifyConfig(suite="gsp4-raising", trials=1000))
    assert len(report.cases) == 3000
    assert_emits_json_dumps(report)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare-bases", "--m-minus-a", "2"],
        ["char", "sp", "--lam", "2,1,0"],
        ["char", "schur", "--lam", "2,-1"],
        ["verify", "dims", "--n", "2", "--max-gap", "2"],
    ],
    ids=["compare-bases", "char-sp", "char-schur", "verify"],
)
def test_json_outputs_are_json_dumps_of_their_values(argv, capsys):
    main(argv)
    text = capsys.readouterr().out
    assert text == dumps(json.loads(text)) + "\n"


def test_xi_output_is_json_dumps_of_its_value(tmp_path):
    data = tmp_path / "data.json"
    out = tmp_path / "xi.json"
    data.write_text(json.dumps(spherical_so_data(BETA2, 2, 8).to_json()))
    assert main(["xi", "--data", str(data), "--r", "2", "--beta", "2,3/2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text == dumps(json.loads(text)) + "\n"
