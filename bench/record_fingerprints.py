"""Record the report fingerprint of each suite workload for a range of seeds.

    python3 bench/record_fingerprints.py FIRST LAST

Runs every suite workload serially, once per seed in FIRST..LAST, checks
that every case passed, and merges the fingerprints into fingerprints.json.
Rerun it only when a change is meant to alter the reports.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = run.BENCH / "fingerprints.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in workloads.CLI_WORKLOADS:
        entries = table.setdefault(workload, {})
        for seed in range(first, last + 1):
            _, record = run.spawn(workload, seed, "serial")
            if not record["report"]["all_passed"]:
                raise SystemExit(f"{workload} seed {seed}: a case failed; nothing recorded")
            entries[str(seed)] = workloads.fingerprint(record["report"])
        table[workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
