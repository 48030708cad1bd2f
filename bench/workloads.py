"""The benchmark's workloads.

Three workloads run a ``paramodular verify`` suite exactly as the command
line does.  ``exact-algebra`` calls public functions that no default suite
exercises at scale (oldform ranks, symbolic Schur and symplectic
characters), timing each call as one case.  README.md in this directory
says why each workload was chosen.

Importing this module does not import ``paramodular``: run.py never
loads the package, only the child processes do.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

CLI_WORKLOADS = {
    "unramified-eval": ["unramified"],
    "fe-symbolic": ["fe", "--trials", "20"],
    "raising-sweep": ["gsp4-raising", "--trials", "1000"],
}
API_WORKLOADS = ("exact-algebra",)
WORKLOADS = (*CLI_WORKLOADS, *API_WORKLOADS)

# exact-algebra inputs: oldform ranks at n = 2 for gaps 0..MAX_GAP, Schur
# polynomials s_lam(X1..X4) for lam inside the 2x4 box, and Sp_6 characters
# for every dominant weight of sup norm <= SP_BOUND (20 weights).
MAX_GAP = 8
SCHUR_VARS, SCHUR_BOX = 4, 2
SP_RANK, SP_BOUND = 3, 3


def cli_argv(workload: str, seed: int) -> list[str]:
    return ["verify", *CLI_WORKLOADS[workload], "--seed", str(seed)]


def fingerprint(report: dict) -> str:
    """SHA-256 of the report with every ``elapsed_ms`` removed: two reports
    with the same fingerprint are the same in every deterministic field."""
    stripped = dict(report)
    stripped["cases"] = [
        {k: v for k, v in case.items() if k != "elapsed_ms"} for case in report["cases"]
    ]
    text = json.dumps(stripped, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- exact-algebra -------------------------------------------------------


def exact_algebra_cases(seed: int) -> list[tuple]:
    """Case descriptors.  The seed orders the family members inside each
    rank case, which changes the elimination path of the fraction-free rank
    computation but not its result.  The case order itself is fixed, so
    which case pays for filling the Schur caches does not move with the
    seed."""
    from paramodular.coweights import Cone, enumerate_cone

    rng = random.Random(f"exact-algebra:{seed}")
    cases: list[tuple] = []
    for gap in range(MAX_GAP + 1):
        for family in ("orbit-paired", "raising-word"):
            cases.append(("rank", family, gap, rng.random()))
    for lam in enumerate_cone(Cone.G, SP_RANK, SP_BOUND):
        cases.append(("sp", lam))
    for lam in enumerate_cone(Cone.GL, SCHUR_VARS, SCHUR_BOX):
        if lam[-1] >= 0:
            cases.append(("schur", lam))
    return cases


def case_id(case: tuple) -> str:
    if case[0] == "rank":
        return f"rank:{case[1]}:gap={case[2]}"
    return f"{case[0]}:{','.join(map(str, case[1]))}"


def run_exact_case(case: tuple):
    """The timed part of one case; returns what ``check_exact_case``
    checks."""
    from paramodular import basis_specs, rank_check, rs_specs, schur, sp_character, xi_image

    if case[0] == "rank":
        _, family, gap, order = case
        specs = basis_specs(2, gap) if family == "orbit-paired" else rs_specs(gap)
        random.Random(order).shuffle(specs)
        rank, _ = rank_check([xi_image(spec).poly for spec in specs])
        return rank
    if case[0] == "sp":
        return sp_character(case[1], SP_RANK)
    return schur(case[1], SCHUR_VARS)


def check_exact_case(case: tuple, result) -> dict | None:
    """None when the result matches its independent oracle, else a
    witness."""
    from fractions import Fraction

    from paramodular.characters import schur_oracle, sp_dimension
    from paramodular.coweights import basis_cardinality

    if case[0] == "rank":
        want = basis_cardinality(2, case[2], 0)
        return None if result == want else {"expected": want, "got": result}
    if case[0] == "sp":
        want = sp_dimension(case[1], SP_RANK)
        got = result.evaluate((1,) * SP_RANK, Fraction(1))
        return None if got == want else {"expected": want, "got": str(got)}
    want = schur_oracle(case[1], SCHUR_VARS)
    return None if result == want else {"expected": str(want), "got": str(result)}


def run_exact_algebra(seed: int, before_case, tracer=None) -> tuple[list, float]:
    """Run every case, calling ``before_case()`` before each; returns
    ``(case, result, elapsed_ms)`` triples and the monotonic time at which
    the last case ended.  With a tracer, each case is a root span named
    ``bench.case``."""
    cases = exact_algebra_cases(seed)
    timed = []
    for case in cases:
        before_case()
        frame = tracer.begin("bench.case") if tracer else None
        start = time.perf_counter()
        result = run_exact_case(case)
        elapsed = (time.perf_counter() - start) * 1000.0
        if frame is not None:
            tracer.end(frame)
        timed.append((case, result, elapsed))
    return timed, time.monotonic()


def exact_algebra_report(timed: list) -> dict:
    """Check every result against its oracle, after the timed section."""
    records = []
    for case, result, ms in timed:
        witness = check_exact_case(case, result)
        record = {
            "case": case_id(case),
            "verdict": "pass" if witness is None else "fail",
            "elapsed_ms": ms,
        }
        if witness is not None:
            record["witness"] = witness
        records.append(record)
    return {
        "suite": "exact-algebra",
        "total": len(records),
        "all_passed": all(r["verdict"] == "pass" for r in records),
        "cases": records,
    }
