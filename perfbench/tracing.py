"""Spans around famop's public functions, recorded from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers, so
every call that goes through a module attribute becomes a span, including
calls famop makes to itself that way (``duplicial`` calling
``trees.enumerate_trees``, ``operads`` calling
``presentations.quotient_classes``, ``linear`` calling
``omega.check_laws``, ``verify_identities`` calling ``r_sequence``).  Names
imported with ``from ... import`` inside famop are not seen: the cost of
building ``Node``s inside the products is ``duplicial`` self time.

A span is ``[name, start, end, parent, task, tag, counts]``, with
``counts`` None when the call raised; spans stay in
memory and are written out when the round ends.  Self time is a span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import statistics
import time


def _report_counts(report) -> dict:
    details = report.details
    return {"instances": details.get("instances", 0),
            "obligations": details.get("obligations", 0),
            "witnesses": len(report.witnesses),
            "rejected": 0 if report.passed else 1}


def _length(key):
    return lambda result: {key: len(result)}


def _axioms_name(args, kwargs):
    mode = args[0] if args else kwargs["mode"]
    return f"duplicial.check_axioms.{mode}"


# (module, attribute, span name or name function, counts function)
WRAPPED = (
    ("omega", "enumerate_structures", "omega.enumerate_structures", _length("found")),
    ("omega", "check_laws", "omega.check_laws", _report_counts),
    ("omega", "edus_passes", "omega.edus_passes", None),
    ("trees", "enumerate_trees", "trees.enumerate_trees", _length("trees")),
    ("trees", "parse", "trees.codec", None),
    ("trees", "serialize", "trees.codec", None),
    ("trees", "to_json", "trees.codec", None),
    ("trees", "from_json", "trees.codec", None),
    ("duplicial", "check_axioms", _axioms_name, _report_counts),
    ("duplicial", "prec1", "duplicial.products", None),
    ("duplicial", "succ1", "duplicial.products", None),
    ("duplicial", "free_morphism_eval", "duplicial.products", None),
    ("linear", "check_family_laws", "linear.check_family_laws", _report_counts),
    ("linear", "check_classic_laws", "linear.check_classic_laws", _report_counts),
    ("linear", "make_graded", "linear.make_graded", None),
    ("operads", "check_operad_laws", "operads.check_operad_laws", _report_counts),
    ("operads", "psi_phi_roundtrip", "operads.psi_phi_roundtrip", None),
    ("operads", "perm_surjection", "operads.perm_surjection", _report_counts),
    ("presentations", "quotient_classes", "presentations.quotient_classes",
     _length("classes")),
    ("presentations", "mixing_census", "presentations.mixing", None),
    ("presentations", "mixing_filter", "presentations.mixing", None),
    ("dims", "r_sequence", "dims.r_sequence", None),
    ("dims", "verify_identities", "dims.verify_identities", None),
    ("dims", "count_basis_trees", "dims.count_basis_trees", None),
)


def _tag(args) -> str:
    """Short text of the scalar positional arguments, e.g. ``4_duplicial``."""
    return "_".join(str(a) for a in args if isinstance(a, (int, str)))[:48]


class Tracer:
    """Records spans of one process; ``task`` is set by the caller."""

    def __init__(self):
        self.spans: list = []
        self.task = None
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name, counts in WRAPPED:
            module = importlib.import_module(f"famop.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span(self, name: str):
        """Open a span by hand; returns a function that closes it."""
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.task, "", None]
        self._stack.append(len(self.spans))
        self.spans.append(record)

        def close(counts=None):
            record[2] = time.perf_counter()
            record[6] = counts
            self._stack.pop()
        return close

    def _wrap(self, fn, name, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            close = tracer.span(name(args, kwargs) if callable(name) else name)
            tracer.spans[-1][5] = _tag(args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(None)
                raise
            close(counts(result) if counts is not None else {})
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _self_times(spans) -> list:
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def layer_metrics(processes) -> dict:
    """Per-layer metrics from the span lists of one or more processes.

    For every span name: ``calls``, ``self_s`` and the sum of each count;
    for every module: ``calls`` and ``self_s``; per check_axioms mode:
    ``first_call_s``, the first call in a process minus the median of that
    process's later calls (the whole first call when there are none, as in
    each ``cli_cold`` child), as a median over processes.
    """
    out: dict = {}
    first_calls: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for spans in processes:
        by_name: dict = {}
        for span, self_s in zip(spans, _self_times(spans)):
            name, start, end, _parent, _task, _tag_text, counts = span
            for key in (name, name.split(".")[0]):
                add(f"{key}.calls", 1)
                add(f"{key}.self_s", self_s)
            for count, value in (counts or {}).items():
                add(f"{name}.{count}", value)
            by_name.setdefault(name, []).append(end - start)
        for name, durations in by_name.items():
            if name.startswith("duplicial.check_axioms."):
                later = statistics.median(durations[1:]) if len(durations) > 1 else 0.0
                first_calls.setdefault(name, []).append(durations[0] - later)
    for name, values in first_calls.items():
        out[f"{name}.first_call_s"] = statistics.median(values)
    graded_calls = out.get("duplicial.check_axioms.graded.calls", 0)
    if graded_calls:
        out["duplicial.graded.reject_ratio"] = (
            out.get("duplicial.check_axioms.graded.rejected", 0) / graded_calls)
    out.update(baseline_metrics(processes))
    return out


# ROADMAP Baseline figures (2 CPUs, Python 3.11.7, single wall-clock runs).
# (metric, span name, tag, pick, ROADMAP figure in seconds, note)
BASELINE = (
    ("baseline.r_sequence_64_s", "dims.r_sequence", "64", "first", 2.9,
     "dims.r_sequence(64)"),
    ("baseline.enumerate_4_duplicial_s", "omega.enumerate_structures",
     "4_duplicial", "first", 8.7, "size 4 duplicial (201501)"),
    ("baseline.enumerate_4_associative_s", "omega.enumerate_structures",
     "4_associative", "first", 1.6, "size 4 associative (3492)"),
    ("baseline.enumerate_3_edus_s", "omega.enumerate_structures", "3_edus",
     "first", 4.4, "size 3 edus (63141)"),
    ("baseline.graded_pass_s", "duplicial.check_axioms.graded", None, "pass",
     3.1, "median passing graded check; ROADMAP's figure is max_vertices=3, "
          "the workloads run max_vertices=2"),
    ("baseline.one_param_check_s", "duplicial.check_axioms.one_param", None,
     "later", 0.004, "median one_param check after the first, size-3 EDUS"),
    ("baseline.operad_pairs_4_s", "operads.check_operad_laws", "pairs_4",
     "first", 1.7, "pairs operad laws at 4 (363558 instances)"),
)


def baseline_metrics(processes) -> dict:
    """Durations (span end minus start) of the calls the ROADMAP Baseline
    quotes, taken from calls the workloads already make; 0 when the
    workload makes no such call.  Calls that raised are left out."""
    out = {}
    for metric, name, tag, pick, _figure, _note in BASELINE:
        durations = []
        for spans in processes:
            found = [s[2] - s[1] for s in spans
                     if s[0] == name and s[6] is not None
                     and (tag is None or s[5] == tag)
                     and (pick != "pass" or not (s[6] or {}).get("rejected", 1))]
            durations.extend(found[1:] if pick == "later" else found)
        out[metric] = (durations[0] if pick == "first" else
                       statistics.median(durations)) if durations else 0.0
    return out
