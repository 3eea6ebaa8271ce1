"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, with one round per run:

1. the reference gate: with one reference value corrupted, every workload
   must report a failed task and ``correct: false``;
2. exact work counts repeat between two runs with the same seed, and the
   seed-independent ones do not change with the seed;
3. every per-layer metric of BENCHMARK.json is reported non-zero by the
   traced run of at least one workload, so no name is misspelt.

Exits 0 when all hold.  Takes a few minutes.
"""
from __future__ import annotations

import sys

import run


def main() -> int:
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in names:
        report = run.run_workload(name, 1, 0, False, tamper=True)
        unexpected = [f for f in report["failures"] if not f["known_defect"]]
        if report["correct"] or not unexpected:
            problems.append(f"{name}: a corrupted reference was not caught")
    for name in ("graded_iff", "exact_algebra"):
        first = run.run_workload(name, 1, 0, False)
        again = run.run_workload(name, 1, 0, False)
        other = run.run_workload(name, 2, 0, False)
        if first["work"] != again["work"]:
            problems.append(f"{name}: work counts differ between equal seeds")
        if first["fixed_work"] != other["fixed_work"]:
            problems.append(f"{name}: seed-independent work counts moved with the seed")
    seen = set()
    for name in names:
        report = run.run_workload(name, 1, 0, True)
        if not report["correct"]:
            problems.append(f"{name}: traced run is not correct")
        seen.update(k for k, v in report["metrics"].items() if v)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in seen]
    if missing:
        problems.append(f"per-layer metrics never reported: {missing}")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest passed" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
