"""The famop benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout.  Every round of a workload runs in its
own fresh interpreter (``worker.py``), so famop's module caches start cold
as they do for every user; rounds repeat while the middle of the next one
is expected within ``--seconds``.
Load is one single-threaded process at a time, and ``cli_cold`` runs one
``famop`` child at a time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the
fastest round's ``wall_s``, task percentiles over each task's fastest
repeat, the median ``peak_rss_mb`` over rounds, and ``setup_s`` as the
median over ``SETUP_PROBES`` fresh ``import famop`` probes, each the
fastest of its repeats before every round and after the last.
``--trace 1`` runs one untraced round, then traced rounds, and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it give the run facts, every metric with its unit and
every failed task.  A full report goes to ``.perfbench_out/``.

``--all`` runs every workload untraced and prints the end-to-end metrics
plus ``fail_ratio`` per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5           # per batch; a batch runs before every round
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run."""


def spawn(*args: str) -> dict:
    """Run one worker round and return its JSON; the clock starts just
    before the interpreter is launched."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), repr(time.monotonic()),
           *args]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {args} did not finish in {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise BenchError(f"worker {args} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(out)


def run_facts(seed: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "loadavg_before": list(os.getloadavg()),
            "seed": seed,
            "load": "one single-threaded workload process at a time; "
                    "cli_cold runs one famop child at a time"}


def repeated_rounds(args: tuple, seconds: float, start: float,
                    probes: list | None = None) -> list:
    """At least one round, then another while the middle of the next one
    (at the median round time so far) lies within ``seconds`` of
    ``start``; so runs measure about ``seconds`` whatever a round takes.
    With ``probes``, a batch of set-up probes runs before every round and
    after the last, spread over the whole run."""
    def probe():
        if probes is not None:
            probes.append([spawn("--probe")["setup_s"] for _ in range(SETUP_PROBES)])

    rounds, took = [], []
    while not rounds or (time.monotonic() - start
                         + statistics.median(took) / 2 <= seconds):
        began = time.monotonic()
        probe()
        rounds.append(spawn(*args))
        took.append(time.monotonic() - began)
    probe()
    return rounds


def work_consistent(rounds: list) -> bool:
    """Exact work counts repeat from round to round (same seed, same inputs)."""
    return all(r["work"] == rounds[0]["work"] for r in rounds)


def gate(rounds: list) -> tuple:
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    correct = work_consistent(rounds) and all(f["known_defect"] for f in failures)
    return attempted, failures, correct


def best_latencies(rounds: list) -> list:
    """Each task's fastest latency over its repeats in all rounds.

    The host shares its cores with other machines, and for seconds at a
    time a core runs at about half speed.  A task's repeats lie seconds
    apart, so the fastest of them is mostly taken at full speed, while a
    pooled percentile moves with the share of slow seconds in the run."""
    best: dict = {}
    for r in rounds:
        for key, x in zip(r["keys"], r["latencies"]):
            best[key] = min(x, best.get(key, x))
    return list(best.values())


def best_setup(batches: list) -> float:
    """The median over the probes of a batch, each probe being the fastest
    of its repeats in the batches (for the reason given above)."""
    return statistics.median(min(repeats) for repeats in zip(*batches))


def end_to_end(rounds: list, probes: list) -> dict:
    latencies = best_latencies(rounds)
    return {
        "setup_s": best_setup(probes),
        "wall_s": min(r["wall_s"] for r in rounds),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "fail_ratio": (sum(len(r["failures"]) for r in rounds)
                       / sum(r["attempted"] for r in rounds)),
    }


def per_layer(base: dict, traced: list) -> dict:
    names = {k for r in traced for k in r["layers"]}
    out = {k: statistics.median(r["layers"].get(k, 0) for r in traced) for k in names}
    out["tracing_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                 - base["wall_s"])
    return out


def exact_counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if not k.endswith("_s") and not k.endswith("_ratio")}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper: bool = False) -> dict:
    facts = run_facts(seed)
    start = time.monotonic()
    args = (name, str(seed), "0") + (("--tamper",) if tamper else ())
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "facts": facts}
    if trace:
        base = spawn(*args)
        traced = repeated_rounds(args[:2] + ("1",) + args[3:], seconds, start)
        rounds = [base] + traced
        metrics = per_layer(base, traced)
        counts = [exact_counts(r["layers"]) for r in traced]
        consistent = all(c == counts[0] for c in counts)
    else:
        probes: list = []
        rounds = repeated_rounds(args, seconds, start, probes)
        metrics = end_to_end(rounds, probes)
        consistent = True
    attempted, failures, correct = gate(rounds)
    facts["loadavg_after"] = list(os.getloadavg())
    facts["tasks_per_round"] = rounds[0]["attempted"]
    facts["rounds"] = len(rounds)
    facts["task_samples"] = sum(len(r["latencies"]) for r in rounds)
    facts["distinct_tasks"] = len(set(rounds[0]["keys"]))
    # Seed-independent tasks, in an order that does not depend on the seed.
    fixed = sorted((label, json.dumps(w, sort_keys=True)) for label, w, f in
                   zip(rounds[0]["labels"], rounds[0]["work"], rounds[0]["fixed"]) if f)
    report.update(metrics=metrics, round_wall_s=[r["wall_s"] for r in rounds],
                  attempted=attempted, failures=failures,
                  correct=correct and consistent,
                  work=rounds[0]["work"], labels=rounds[0]["labels"],
                  fixed_work=fixed)
    return report


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def result_line(report: dict, spec: dict) -> dict:
    wanted = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    metrics = report["metrics"]
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": len(report["failures"]), "metrics": out}


def save(report: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{report['workload']}-seed{report['seed']}"
                             f"-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


def print_report(report: dict, result: dict) -> None:
    print(f"facts: {json.dumps(report['facts'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{report['workload']} {name} = {m['value']:.6g} {m['unit']}")
    if not report["trace"]:
        print(f"{report['workload']} fail_ratio = {report['metrics']['fail_ratio']:.6g} "
              f"failed/attempted ({result['failed']}/{result['attempted']}); "
              f"p90 has {report['facts']['distinct_tasks'] // 10} tasks beyond it")
    else:
        import tracing
        for metric, _n, _t, _p, figure, note in tracing.BASELINE:
            value = report["metrics"].get(metric, 0)
            if value:
                print(f"baseline {metric} = {value:.4g} s (ROADMAP {figure} s; {note})")
    for f in report["failures"]:
        known = f" [known: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"FAILED task {f['task']} {f['label']}: {f['reason']}{known}")
    if not report["correct"]:
        print("INCORRECT: an unexpected failure or a work count that did not repeat")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "famop", "__init__.py")):
        print(f"no famop sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.all == (args.workload is not None) or (args.workload
                                                   and args.workload not in names):
        parser.error(f"give --all or one --workload of {names}")
    try:
        if not args.all:
            report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            result = result_line(report, spec)
            save(report)
            print_report(report, result)
            print(json.dumps(result))
            return 0
        summary = {}
        for name in names:
            report = run_workload(name, args.seed, args.seconds, False)
            save(report)
            result = result_line(report, spec)
            print_report(report, result)
            summary[name] = dict(result["metrics"], fail_ratio={
                "value": report["metrics"]["fail_ratio"], "unit": "failed/attempted"})
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
