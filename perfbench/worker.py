"""One round of one workload, in a fresh interpreter.

Usage: python3 worker.py LAUNCH WORKLOAD SEED TRACE [--tamper]
       python3 worker.py LAUNCH --probe

LAUNCH is the parent's ``time.monotonic()`` taken just before it started
this process; the clock is shared by all processes, so ``setup_s`` covers
interpreter start-up plus ``import famop`` with every submodule.  The
round builds the workload's inputs (untimed), runs its tasks in order
(timed), checks every answer, and prints one JSON object.
"""
import os
import sys
import time

LAUNCH = float(sys.argv[1])
import famop  # noqa: E402
import famop.cli  # noqa: E402
SETUP_S = time.monotonic() - LAUNCH

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import types  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def _task_keys(tasks) -> list:
    """Each listing's task, as the index of that task's first listing."""
    first: dict = {}
    return [first.setdefault(id(task), i) for i, task in enumerate(tasks)]


def run_round(workload: str, seed: int, trace: bool, tmpdir: str) -> dict:
    import tracing
    import workloads

    env = types.SimpleNamespace(root=ROOT, src=SRC, bench=BENCH, tmpdir=tmpdir,
                                tracer=None, famop=None)
    tasks = workloads.WORKLOADS[workload](seed, env)
    tracer = env.tracer = tracing.Tracer() if trace else None
    latencies, work, failures = [], [], []
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, task in enumerate(tasks):
            if tracer:
                tracer.task = i
            t0 = time.perf_counter()
            reason = counts = None
            try:
                result = task.call()
            except Exception as exc:  # a raising task is a failed task
                reason = f"raised {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if reason is None:
                try:
                    counts = task.check(result)
                except workloads.Mismatch as exc:
                    reason = str(exc)
                except Exception as exc:  # a malformed answer fails its task
                    reason = f"check raised {type(exc).__name__}: {exc}"
            work.append(counts)
            if reason is not None:
                failures.append({"task": i, "label": task.label, "reason": reason,
                                 "known_defect": task.known_defect})
        wall_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    out = {"setup_s": SETUP_S, "wall_s": wall_s, "latencies": latencies,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
           "attempted": len(tasks), "failures": failures, "work": work,
           "fixed": [task.fixed for task in tasks],
           "keys": _task_keys(tasks),
           "labels": [task.label for task in tasks]}
    if tracer:
        processes = [tracer.spans]
        if env.famop is not None:
            processes += env.famop.children
        out["layers"] = tracing.layer_metrics(processes)
        if env.famop is not None:
            out["layers"].update(workloads.cli_metrics(env.famop.records))
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}-{os.getpid()}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(processes, fh)
    return out


def main() -> int:
    here = os.path.dirname(os.path.abspath(famop.__file__))
    if here != os.path.join(SRC, "famop"):
        print(f"famop was imported from {here}, not from {SRC}", file=sys.stderr)
        return 2
    if sys.argv[2] == "--probe":
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    workload, seed, trace = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    if "--tamper" in sys.argv[5:]:
        import reference
        reference.tamper(workload)
    tmpdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        result = run_round(workload, seed, trace, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
