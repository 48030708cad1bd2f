"""Benchmark entry point: time one workload end to end, or trace its layers.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every timed run is a fresh interpreter (bench/child.py), started one at a
time from this process, so no run inherits another's caches or competes
with it for a core.  It repeats rounds until ``--seconds`` is
used up (at least ``MIN_ROUNDS``) and reports medians over them.

--trace 0   each round is a serial run, a run with PARAMODULAR_JOBS=2 and
            ``SETUP_RUNS`` runs that stop at the first case; prints the
            end-to-end metrics.  Their times are scaled to a fixed machine
            speed by the probes each run takes (speed.py); the raw median
            wall times are printed next to them.
--trace 1   each round is a serial run, a PARAMODULAR_JOBS=2 run and a
            serial traced run; prints the per-layer metrics.

Every report is checked after its run: all cases pass and, for the suite
workloads, the report's fingerprint equals the one recorded for the seed in
fingerprints.json (seeds without a record must agree across the runs of
this invocation).  Human-readable lines come first; the last line is one
JSON object; with ``--workload all`` it covers every workload, with metric
names prefixed by ``<workload>/``.  The exit status is 1 when any check
failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1
SETUP_RUNS = 2
CHILD_TIMEOUT_S = 150
# Tail percentiles tried from the highest down; the reported one is the
# highest with at least TAIL_BEYOND cases above it in one run.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

RAISING_SPANS = ("whittaker.theta_data", "whittaker.theta_prime_data", "whittaker.eta_data")


def declared_units(kind: str) -> dict[str, str]:
    """The ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json declares,
    with their units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[kind]}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed check)."""


def jobs2_skip_reason() -> str | None:
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        return f"only {cores} core available; PARAMODULAR_JOBS=2 would oversubscribe it"
    return None


def spawn(workload: str, seed: int, mode: str) -> tuple[float, dict]:
    """Run one child; returns the monotonic spawn time and its record."""
    env = dict(os.environ)
    env.pop("PARAMODULAR_JOBS", None)
    if mode == "jobs2":
        env["PARAMODULAR_JOBS"] = "2"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode]
    spawned = time.monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} run of {workload} exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def another_round(start: float, rounds: int, min_rounds: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, fits in the
    measuring time."""
    if rounds < min_rounds:
        return True
    elapsed = time.monotonic() - start
    return elapsed + elapsed / rounds <= seconds


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics averaged
    with Beta((n+1)/2, (n+1)/2) weights (here the density at each rank's
    midpoint).  Where the case times have a gap at the middle, as
    ``unramified-eval`` has between its n <= 2 and n = 3 cases, the plain
    median is decided by the two cases either side of it; this estimate
    weighs the ranks around the middle."""
    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2 - 1
    logs = [a * math.log((i + 0.5) / n * (1 - (i + 0.5) / n)) for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(n_cases: int) -> float:
    for pct in TAIL_LADDER:
        if n_cases - math.ceil(pct * n_cases / 100) >= TAIL_BEYOND:
            return pct
    return TAIL_LADDER[-1]


class Checker:
    """Checks each report after its run and counts attempted and failed
    cases.  A report whose fingerprint is wrong counts all its cases as
    failed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.expected = None
        self.recorded = False
        if workload in workloads.CLI_WORKLOADS:
            table = json.loads((BENCH / "fingerprints.json").read_text(encoding="utf-8"))
            self.expected = table[workload].get(str(seed))
            self.recorded = self.expected is not None

    def check(self, record: dict) -> dict:
        report = record["report"]
        cases = report["cases"]
        bad = sum(c["verdict"] != "pass" for c in cases)
        if bad or not report["all_passed"] or record["exit_code"] != 0:
            bad = max(bad, 1)
            self.problems.append(f"{record['mode']} run: {bad} of {len(cases)} cases failed")
        if self.workload in workloads.CLI_WORKLOADS:
            fp = workloads.fingerprint(report)
            if self.expected is None:
                self.expected = fp
            elif fp != self.expected:
                self.problems.append(f"{record['mode']} run: report fingerprint {fp[:12]} differs")
                bad = len(cases)
        self.attempted += len(cases)
        self.failed += bad
        return report

    def note(self) -> str:
        if self.workload not in workloads.CLI_WORKLOADS:
            return "results checked against independent oracles"
        if self.recorded:
            return "report fingerprints checked against the one recorded for this seed"
        return "no fingerprint recorded for this seed: reports checked to agree with each other"


def case_times_ms(report: dict) -> list[float]:
    return sorted(c["elapsed_ms"] for c in report["cases"])


def own_probes(rec: dict) -> list:
    """The probe samples the run's own process took."""
    return speed.by_pid(rec["probes"]).get(rec["pid"], [])


def raw_wall(rec: dict, spawned: float) -> float:
    """Wall time of a run, less the probes its own process ran (pool
    workers probe alongside each other, so theirs stay in)."""
    return rec["end"] - spawned - speed.probed_between(own_probes(rec), spawned, rec["end"])


def scaled_cases(rec: dict) -> tuple[list[float], list[float]]:
    """Raw and reference-speed case times (s), each case scaled by the
    probes its own process took around it."""
    samples = speed.by_pid(rec["probes"])
    elapsed = [c["elapsed_ms"] / 1000 for c in rec["report"]["cases"]]
    stamps = rec["case_stamps"]
    if len(elapsed) != len(stamps):
        raise BenchError(f"{len(stamps)} case stamps for {len(elapsed)} cases")
    scaled = [speed.scaled(samples[pid], e, t) for e, (pid, t) in zip(elapsed, stamps)]
    return elapsed, scaled


def serial_times(rec: dict, spawned: float) -> tuple[float, list[float], float]:
    """Setup time, case times and the rest of the wall time (s) of a serial
    run, at reference speed.  Each case is scaled by the probes around it;
    the rest (after setup, cases and probes: writing the report) by the
    run's median probe."""
    samples, first, end = own_probes(rec), rec["first_case"], rec["end"]
    elapsed, cases = scaled_cases(rec)
    setup = first - spawned - speed.probed_between(samples, spawned, first)
    rest = end - first - sum(elapsed) - speed.probed_between(samples, first, end)
    return (
        speed.scaled(samples, setup, spawned),
        cases,
        speed.scaled_by_median(samples, rest),
    )


def setup_time(rec: dict, spawned: float) -> float:
    """Setup time of a run stopped at its first case, at reference
    speed."""
    samples, first = own_probes(rec), rec["first_case"]
    setup = first - spawned - speed.probed_between(samples, spawned, first)
    return speed.scaled(samples, setup, spawned)


def jobs2_wall(rec: dict, spawned: float) -> tuple[float, float]:
    """Raw wall time of a pool run, and that time at reference speed: the
    raw time scaled by the ratio of scaled to raw case time, the run's
    speed weighted by where its work ran."""
    wall = raw_wall(rec, spawned)
    elapsed, scaled = scaled_cases(rec)
    return wall, wall * sum(scaled) / sum(elapsed)


def measure(workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    """Untraced rounds; returns metric name -> (value, how it was
    aggregated).

    A round runs the same cases in the same order, so each case's time is
    first taken as its median over the rounds; the case metrics are read
    from those medians, and ``wall_s`` adds them to the median setup time
    and the median rest.  One case slowed in one round then moves nothing."""
    skip = jobs2_skip_reason()
    case_rounds, rests, jobs2_walls, setups, rss = [], [], [], [], []
    raw = {"wall_s": [], "wall_jobs2_s": []}
    start = time.monotonic()
    while another_round(start, len(case_rounds), MIN_ROUNDS, seconds):
        spawned, rec = spawn(workload, seed, "serial")
        checker.check(rec)
        setup, cases, rest = serial_times(rec, spawned)
        case_rounds.append(cases)
        rests.append(rest)
        setups.append(setup)
        raw["wall_s"].append(raw_wall(rec, spawned))
        rss.append(rec["peak_rss_kb"] / 1024)
        if skip is None:
            spawned, rec = spawn(workload, seed, "jobs2")
            checker.check(rec)
            wall2_raw, wall2 = jobs2_wall(rec, spawned)
            jobs2_walls.append(wall2)
            raw["wall_jobs2_s"].append(wall2_raw)
        for _ in range(SETUP_RUNS):
            spawned, rec = spawn(workload, seed, "setup")
            setups.append(setup_time(rec, spawned))
    n = len(case_rounds)
    times = sorted(1000 * statistics.median(per_case) for per_case in zip(*case_rounds))
    tail_pct = tail_percentile(len(times))
    setup = statistics.median(setups)

    def raw_note(name: str) -> str:
        return f", raw median {statistics.median(raw[name]):.4g} s"

    metrics = {
        "wall_s": (
            setup + sum(times) / 1000 + statistics.median(rests),
            f"setup + {len(times)} case medians + rest, {n} serial runs" + raw_note("wall_s"),
        ),
        "case_p50_ms": (
            harrell_davis_median(times),
            f"Harrell-Davis median of {len(times)} case medians over {n} runs",
        ),
        "case_tail_ms": (
            percentile(times, tail_pct),
            f"p{tail_pct:g} of {len(times)} case medians over {n} runs",
        ),
        "setup_s": (setup, f"median of {len(setups)} start-ups"),
        "peak_rss_mb": (statistics.median(rss), f"median of {n} serial runs"),
    }
    if skip is None:
        metrics["wall_jobs2_s"] = (
            statistics.median(jobs2_walls),
            f"median of {len(jobs2_walls)} runs with PARAMODULAR_JOBS=2" + raw_note("wall_jobs2_s"),
        )
    else:
        print(f"wall_jobs2_s skipped: {skip}")
    return metrics


def trace_layers(workload: str, seed: int, seconds: float, checker: Checker) -> dict:
    """Rounds of serial, jobs=2 and traced runs; returns layer metrics.

    Metrics named ``<span>.calls`` or ``<span>.self_s`` come from the span
    aggregates, metrics the tracer counts (``coweights.enumerate_cone.items``)
    from its counts, and the rest are computed here."""
    skip = jobs2_skip_reason()
    units = declared_units("per_layer")
    samples: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    start = time.monotonic()
    rounds = 0
    while another_round(start, rounds, MIN_TRACE_ROUNDS, seconds):
        spawned, rec = spawn(workload, seed, "serial")
        report = checker.check(rec)
        wall = raw_wall(rec, spawned)
        busy = sum(case_times_ms(report)) / 1000
        add("cli.case_overhead_s", wall - busy)
        if skip is None:
            spawned, rec = spawn(workload, seed, "jobs2")
            report = checker.check(rec)
            busy2 = sum(case_times_ms(report)) / 1000
            add("cli.jobs2.busy_frac", busy2 / (2 * jobs2_wall(rec, spawned)[0]))
        spawned, rec = spawn(workload, seed, "trace")
        checker.check(rec)
        add("trace.overhead_s", rec["end"] - spawned - wall)
        trace = rec["trace"]
        stats, counts = trace["stats"], trace["counts"]

        def stat(name: str, field: str) -> float:
            return stats.get(name, {}).get(field, 0)

        xi_calls = stat("rankin.xi", "calls")
        derived = {
            "rankin.xi.stabilized_frac": (
                counts["rankin.xi.stabilized"] / xi_calls if xi_calls else 0.0
            ),
            "whittaker.raising.self_s": sum(stat(s, "self_s") for s in RAISING_SPANS),
            "characters.schur.misses": trace["schur_misses"],
        }
        for name in units:
            if name in derived:
                add(name, derived[name])
            elif name in counts:
                add(name, counts[name])
            elif name.endswith((".calls", ".self_s")):
                add(name, stat(*name.rsplit(".", 1)))
        print(
            f"traced run: {trace['spans_kept']} span records in {trace['spans_file']} "
            f"({trace['spans_dropped']} shorter or beyond the cap aggregated only)"
        )
        rounds += 1
    if skip is not None:
        print(f"cli.jobs2.busy_frac skipped: {skip}")
    return {
        name: (statistics.median(values), f"median of {len(values)} rounds")
        for name, values in samples.items()
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload and print its metrics; returns the result
    object.  Raises BenchError when the benchmark cannot run."""
    checker = Checker(workload, seed)
    units = declared_units("per_layer" if trace else "end_to_end")
    measure_fn = trace_layers if trace else measure
    try:
        metrics = measure_fn(workload, seed, seconds, checker)
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        raise BenchError(str(exc)) from exc
    skipped = {"wall_jobs2_s", "cli.jobs2.busy_frac"} if jobs2_skip_reason() else set()
    if set(metrics) != set(units) - skipped:
        raise BenchError(
            f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"
        )

    print(f"workload {workload}, seed {seed}: {checker.note()}")
    for name, (value, note) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {units[name]}  ({note})")
    print(
        f"failed_frac = {checker.failed / checker.attempted:.6g}  "
        f"({checker.failed} of {checker.attempted} cases)"
    )
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "paramodular" / "__init__.py").is_file():
        print(f"no paramodular sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"benchmark could not run {name}: {exc}", file=sys.stderr)
            return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        # one line for all workloads: metric names are prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
