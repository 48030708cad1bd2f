"""Command-line interface: suite runners, report formats, subcommands."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import paramodular
from paramodular import cli
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
from paramodular.rings import SymLaurent
from paramodular.whittaker import spherical_so_data

BETA2 = (Fraction(2), Fraction(3, 2))


def report_fingerprint(report: Report) -> list[dict]:
    out = []
    for case in report.to_json()["cases"]:
        case = dict(case)
        case.pop("elapsed_ms")
        out.append(case)
    return out


def test_verify_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(suite="nonsense")
    with pytest.raises(ValueError):
        VerifyConfig(suite="unramified", trunc=2, window=4)
    with pytest.raises(ValueError):
        VerifyConfig(suite="unramified", window=1, trunc=8)
    with pytest.raises(ValueError):
        VerifyConfig(suite="dims", trials=0)
    with pytest.raises(ValueError):
        VerifyConfig(suite="unramified", mode="approximate")
    for rank in ({"n": 0}, {"r": 0}, {"r": -1}):  # 0 used to mean the default grid
        with pytest.raises(ValueError):
            VerifyConfig(suite="kernel", **rank)
    with pytest.raises(ValueError):
        VerifyConfig(suite="gsp4-raising", trunc=-1)
    cfg = VerifyConfig(suite="kernel")
    assert cfg.trials == 50  # suite default fills in
    assert (cfg.trunc, cfg.window, cfg.mode) == (8, 4, "evaluation")
    # a suite that reads no window takes a truncation below the default one
    assert VerifyConfig(suite="gsp4-raising", trunc=3).trunc == 3


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


@pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-2"])
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
    # 258 cases on two real workers go in chunks of two
    cfg = {"suite": "gsp4-raising", "trials": 86, "trunc": 6}
    serial = run_suite(VerifyConfig(**cfg))
    chunksizes = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1):
            chunksizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("PARAMODULAR_JOBS", "2")
    parallel = run_suite(VerifyConfig(**cfg))
    assert chunksizes == [2]
    assert report_fingerprint(serial) == report_fingerprint(parallel)


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
    "gap-out-of-range": ["compare-bases", "--m-minus-a", "7"],
    "window-below-two": ["verify", "unramified", "--window", "1"],
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
    "eta-lemma-window": ["verify", "eta-lemma", "--window", "3", "--trials", "1"],
    "oldform-bases-trunc-window": [
        "verify", "oldform-bases", "--trunc", "3", "--window", "2", "--max-gap", "0"
    ],
    "dims-trunc": ["verify", "dims", "--trunc", "5", "--n", "1", "--max-gap", "0"],
    "kernel-trunc": ["verify", "kernel", "--trunc", "5", "--n", "2", "--trials", "1"],
    "dependence-window": ["verify", "dependence", "--window", "3"],
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
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
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
    blob = report.to_json()
    assert blob["failed"] == 1
    assert blob["cases"][0]["witness"] == {"reason": "boom"}
    assert "FAIL" in emit(report, "text")
    assert "boom" in emit(report, "text")


UNSTABLE = {"reason": "series did not stabilize"}


def test_fe_verdicts_need_stabilized_series():
    # at trunc 3 the raised images have not stabilized on a window of 2
    report = run_suite(VerifyConfig(suite="fe", trials=1, trunc=3, window=2))
    witnesses = {c.parameters["check"]: c.witness for c in report.cases}
    assert witnesses.pop("spherical") is None
    assert witnesses == dict.fromkeys(witnesses, UNSTABLE) and len(witnesses) == 5


def test_level_a1_constants_need_stabilized_series():
    report = run_suite(VerifyConfig(suite="level-a1", trunc=2, window=2))
    assert [c.witness for c in report.cases] == [UNSTABLE] * 3


def test_palindromic_failure_shows_expected_and_got(monkeypatch):
    # b0 stays the constant term, so the expected image is the unperturbed one
    x1 = SymLaurent.variable(2, 0)
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


def test_main_verify_and_dims_exit_zero(tmp_path):
    out = tmp_path / "dims.csv"
    rc = main(
        ["verify", "dims", "--max-gap", "3", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().startswith("case,verdict")
    rc = main(["dims", "--max-n", "2", "--max-gap", "2", "--out", str(out)])
    assert rc == 0


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
        assert not rhs.is_zero(), c


def test_main_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


def test_main_version_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


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
