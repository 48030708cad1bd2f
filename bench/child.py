"""Run one workload once, in this fresh interpreter, and print one JSON line.

    python3 bench/child.py WORKLOAD SEED MODE

MODE is one of
  serial  timed run, no tracing; stamps the start of every case and probes
          the machine's speed between cases (speed.py)
  jobs2   timed run with the pool the environment asks for (run.py sets
          PARAMODULAR_JOBS=2 for this child only), probed from a background
          thread
  setup   stops at the start of the first case, after probing
  trace   serial run with every layer wrapped by the span tracer; the span
          records go to bench/out/

run.py starts this script with ``src`` on PYTHONPATH and reads the
printed line: monotonic stamps, the speed probes, the child's peak RSS, the
exit status the command line would return, the report, and in trace mode
the span aggregates.  Stamps use ``time.monotonic``, the clock run.py reads
before spawning, so their differences span both processes.  The first
probes run before ``paramodular`` is imported and the last after the end
stamp.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

MODES = ("serial", "jobs2", "setup", "trace")


class SetupDone(BaseException):
    """Raised at the first case in setup mode; not an Exception, so the
    harness's per-case error handling does not catch it."""


def cold_cache_guard(characters) -> None:
    """Every functools cache in ``characters`` must start empty, or the run
    would time the cache instead of the code."""
    for name, obj in sorted(vars(characters).items()):
        info = getattr(obj, "cache_info", None)
        if info is not None and info().currsize:
            raise SystemExit(f"characters.{name} cache is warm at start: {info()}")


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if workload not in workloads.WORKLOADS or mode not in MODES:
        raise SystemExit(f"usage: child.py WORKLOAD SEED {{{','.join(MODES)}}}")
    probes = speed.Probes()
    if mode != "trace":
        probes.take_several()

    import paramodular
    from paramodular import characters, cli

    source = Path(paramodular.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"paramodular imported from {source}, not from {ROOT / 'src'}")
    cold_cache_guard(characters)

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first_case: list[float] = []
    probed = mode in ("serial", "jobs2")

    def before_case() -> float:
        """Called before every case, in the process that runs it; probes
        at most every PROBE_GAP_S and returns the case's start stamp."""
        if not first_case:
            first_case.append(time.monotonic())
            if mode == "setup":
                probes.take_several()
                raise SetupDone
        if probed:
            probes.maybe_take()
        return time.monotonic()

    out = {"mode": mode, "pid": os.getpid()}
    stamps: list = []  # (pid, start) of each case, in report order
    samples = set()
    try:
        if workload in workloads.CLI_WORKLOADS:
            # Pool workers unpickle _run_case by name from their forked copy
            # of cli, so the wrapper takes its name; it hands the stamps
            # and new probe samples back on the record.
            run_case = cli._run_case

            def stamped(config, params):
                start = before_case()
                record = run_case(config, params)
                record.bench_stamp = (os.getpid(), start, probes.drain())
                return record

            stamped.__module__, stamped.__qualname__ = run_case.__module__, "_run_case"
            cli._run_case = stamped
            reports = []
            run_suite = cli.run_suite

            def keeping(config):
                reports.append(run_suite(config))
                return reports[-1]

            cli.run_suite = keeping
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out["exit_code"] = cli.main(workloads.cli_argv(workload, seed))
            end, peak_rss = time.monotonic(), peak_rss_kb()
            out["report"] = json.loads(buf.getvalue())
            for record in reports[0].cases:
                pid, start, new = record.bench_stamp
                stamps.append((pid, start))
                samples.update(new)
        else:

            def stamping() -> None:
                stamps.append((os.getpid(), before_case()))

            timed, end = workloads.run_exact_algebra(seed, stamping, tracer)
            peak_rss = peak_rss_kb()
            out["report"] = workloads.exact_algebra_report(timed)
            out["exit_code"] = 0 if out["report"]["all_passed"] else 1
    except SetupDone:
        end, peak_rss = time.monotonic(), peak_rss_kb()
    if probed:
        probes.take()
    samples.update(probes.samples)
    out["first_case"] = first_case[0] if first_case else None
    out["case_stamps"] = stamps
    out["end"] = end
    out["peak_rss_kb"] = peak_rss
    out["probes"] = sorted(samples, key=lambda sample: sample[1])

    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["trace"]["schur_misses"] = characters.schur.cache_info().misses
        out["trace"]["spans_file"] = write_spans(tracer, workload, seed)
    print(json.dumps(out))
    return 0


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.  ``ru_maxrss``
    would not do: across fork and exec Linux carries the spawning process's
    peak into it, so a large parent would show up as the child's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def write_spans(tracer, workload: str, seed: int) -> str:
    """Write the kept span records as JSON lines; returns the path relative
    to the checkout."""
    path = BENCH / "out" / f"{workload}-seed{seed}.spans.jsonl"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name, start, end, parent, case in tracer.spans:
            handle.write(
                json.dumps(
                    {"id": sid, "name": name, "start": start, "end": end,
                     "parent": parent, "case": case}
                )
                + "\n"
            )
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
