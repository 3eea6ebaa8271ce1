"""The four workloads: seeded inputs, one task per call into famop, and the
reference each answer is checked against.

A workload builder returns a list of ``Task``s.  ``call`` is the timed call
into a public famop function (for ``cli_cold``, one ``famop`` command in a
fresh interpreter); ``check`` compares its answer with the reference,
raises ``Mismatch`` on a difference and returns the call's exact work
counts.  The seed picks the sampled inputs; famop receives them only as
data.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from famop import dims, duplicial, linear, omega, operads, presentations, trees

import reference as ref


class Mismatch(Exception):
    """An answer differs from its reference."""


def expect(condition, what: str) -> None:
    if not condition:
        raise Mismatch(what)


@dataclass
class Task:
    """One timed call and its check.  The same ``Task`` may be listed more
    than once in a round: every listing is a repeat, and a task's latency
    is the fastest of its repeats over all rounds of a run."""
    label: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    fixed: bool = False              # inputs do not depend on the seed
    known_defect: str | None = None  # a failure the ROADMAP already records


def _report_work(report) -> dict:
    work = {"witnesses": len(report.witnesses)}
    for key in ("instances", "obligations"):
        if key in report.details:
            work[key] = report.details[key]
    return work


def _shuffled(rng: random.Random, groups) -> list:
    """Flatten task groups in a seeded order; a group's tasks stay in order."""
    groups = list(groups)
    rng.shuffle(groups)
    return [task for group in groups for task in group]


# ---------------------------------------------------------------------------
# graded_iff

GRADED_REJECTS = 520     # passes (205) stay a quarter of all tasks
MORPHISM_TRIPLES = 10


def _graded_witness_holds(report, structure) -> None:
    """Re-evaluate a reported graded violation on trees parsed back from
    the witness text."""
    law, (tx, cx, ty, cy, tz, cz) = report.witnesses[0]
    x, y, z = (duplicial.GradedElement(trees.parse(t), c)
               for t, c in ((tx, cx), (ty, cy), (tz, cz)))
    p = lambda a, b: duplicial.graded_prec(a, b, structure)  # noqa: E731
    s = lambda a, b: duplicial.graded_succ(a, b, structure)  # noqa: E731
    sides = {"G1": lambda: (p(p(x, y), z), p(x, p(y, z))),
             "G2": lambda: (p(s(x, y), z), s(x, p(y, z))),
             "G3": lambda: (s(x, s(y, z)), s(s(x, y), z))}[law]()
    expect(sides[0] != sides[1], f"graded witness {law} does not reproduce")


def graded_iff(seed: int, env) -> list[Task]:
    rng = random.Random(seed)
    members = ref.edus_quadruples(2)
    tables = ref.all_tables(2)
    quads = list(itertools.product(tables, repeat=4))
    passes = sorted(members)
    rejects = rng.sample([q for q in quads if q not in members], GRADED_REJECTS)

    def check_edus(found):
        expect(len(found) == ref.EDUS_SIZE_2,
               f"{len(found)} size-2 EDUS, reference {ref.EDUS_SIZE_2}")
        got = {(s.left_arrow, s.right_arrow, s.left_tri, s.right_tri) for s in found}
        expect(got == members, "enumerated EDUS differ from the law evaluation")
        return {"found": len(found)}

    def graded_task(quad, expected: bool) -> Task:
        structure = omega.OmegaStructure(2, *quad)

        def check(report):
            expect(report.passed == expected,
                   f"graded verdict {report.passed}, membership {expected}")
            expect(omega.edus_passes(*quad, 2) == expected,
                   "edus_passes disagrees with membership")
            if not report.passed:
                _graded_witness_holds(report, structure)
            return _report_work(report)

        return Task("graded.pass" if expected else "graded.reject",
                    lambda: duplicial.check_axioms("graded", structure,
                                                   max_vertices=2,
                                                   first_witness_only=True),
                    check, fixed=expected)

    edus = [omega.OmegaStructure(2, *q) for q in passes]
    pool = [t for n in (1, 2, 3) for t in trees.enumerate_trees(n, 1, 2, "single")]
    gen = duplicial.tree_generator

    def morphism_group(e, t, u, w) -> list[Task]:
        """prec1/succ1 of (t, u) pushed through the induced morphism: the
        image of a product must be the product of the images."""
        target = duplicial.FreeAlgebraTarget(e)
        image = {"x0": duplicial.prec1(gen("a"), gen("b"), rng.randrange(2), e)}
        f = image.__getitem__
        got: dict = {}

        def step(key, fn):
            def call():
                got[key] = fn()
                return got[key]
            return call

        def tree_work(tree):
            return {"vertices": trees.vertices(tree)}

        def final(bar_u):
            expect(got["bar_p"] == target.prec(got["bar_t"], w, bar_u),
                   "morphism does not commute with prec1")
            expect(got["bar_s"] == target.succ(got["bar_t"], w, bar_u),
                   "morphism does not commute with succ1")
            return tree_work(bar_u)

        def ev(*args):
            return duplicial.free_morphism_eval(*args)

        return [
            Task("morphism.prec1", step("p", lambda: duplicial.prec1(t, u, w, e)), tree_work),
            Task("morphism.succ1", step("s", lambda: duplicial.succ1(t, u, w, e)), tree_work),
            Task("morphism.eval", step("bar_p", lambda: ev(f, target, got["p"])), tree_work),
            Task("morphism.eval", step("bar_s", lambda: ev(f, target, got["s"])), tree_work),
            Task("morphism.eval", step("bar_t", lambda: ev(f, target, t)), tree_work),
            Task("morphism.eval", lambda: ev(f, target, u), final),
        ]

    def generator_task(e, t) -> Task:
        target = duplicial.FreeAlgebraTarget(e)

        def check(result):
            expect(result == t, "the morphism does not fix the canonical embedding")
            return {"vertices": trees.vertices(t)}
        return Task("morphism.generator", lambda: duplicial.free_morphism_eval(
            gen, target, t), check, fixed=True)

    groups = [[graded_task(q, False)] for q in rejects]
    for _ in range(MORPHISM_TRIPLES):
        groups.append(morphism_group(rng.choice(edus), rng.choice(pool),
                                     rng.choice(pool), rng.randrange(2)))
    e0 = edus[0]
    groups += [[generator_task(e0, t)] for t in pool]
    first = Task("omega.enumerate.edus2", lambda: omega.enumerate_structures(2, "edus"),
                 check_edus, fixed=True)
    # The passes run after the short tasks.  A reject that directly follows
    # a 20 ms pass runs about 1.5 times slower on cold CPU caches; in a mix
    # of both, the seed would set how many rejects pay that, and p50 would
    # move with it.
    return ([first] + _shuffled(rng, groups)
            + _shuffled(rng, [[graded_task(q, True)] for q in passes]))


# ---------------------------------------------------------------------------
# table_census

CENSUS_ORDER = ((3, "diassociative"), (3, "duplicial"), (3, "edus"),
                (3, "associative"), (3, "twist_associative"), (3, "napnapprime"),
                (3, "perm"), (4, "associative"), (4, "duplicial"))
# With these counts p50 sits among the law checks and p90 among the
# one_param checks, each well inside its population.
ONE_PARAM_CHECKS = 200
TWO_PARAM_CHECKS = 60
LAW_CHECKS_PER_KIND = 40   # and as many one-cell perturbations


def _perturbed(structure, field: str, row: int, col: int, shift: int):
    """``structure`` with one table cell moved by ``shift`` (mod size)."""
    size = structure.size
    rows = [list(r) for r in getattr(structure, field)]
    rows[row][col] = (rows[row][col] + shift) % size
    if isinstance(structure, omega.Magma):
        return omega.Magma(size, rows)
    data = {f: getattr(structure, f) for f in
            ("left_arrow", "right_arrow", "left_tri", "right_tri")}
    data[field] = rows
    return omega.OmegaStructure(size, **data)


def _fields(kind: str) -> tuple:
    if kind in omega.MAGMA_KINDS:
        return ("table",)
    if kind == "edus":
        return ("left_arrow", "right_arrow", "left_tri", "right_tri")
    return ("left_arrow", "right_arrow")


def table_census(seed: int, env) -> list[Task]:
    rng = random.Random(seed)
    found: dict = {}
    members: dict = {}

    def enumeration(size: int, kind: str) -> Task:
        def call():
            found[size, kind] = omega.enumerate_structures(size, kind, force=size > 3)
            return found[size, kind]

        def check(result):
            expected = ref.ENUMERATION_COUNTS[size, kind]
            expect(len(result) == expected,
                   f"{len(result)} {kind} of size {size}, reference {expected}")
            if size == 3:
                members[kind] = set(result)
            return {"found": len(result)}
        return Task(f"enumerate.{size}.{kind}", call, check, fixed=True)

    def axioms(mode: str, kind: str, index: int) -> Task:
        def check(report):
            expect(report.passed, f"{mode} check failed on a {kind} structure, "
                                  "against the paper's theorem")
            return _report_work(report)
        return Task(f"axioms.{mode}", lambda: duplicial.check_axioms(
            mode, found[3, kind][index], max_vertices=3), check)

    def law_check(kind: str, index: int, cell) -> Task:
        def structure():
            s = found[3, kind][index]
            return s if cell is None else _perturbed(s, *cell)

        def check(report):
            expected = cell is None or structure() in members[kind]
            expect(report.passed == expected,
                   f"check_laws {report.passed}, membership {expected}")
            return _report_work(report)
        return Task(f"laws.{kind}" + ("" if cell is None else ".perturbed"),
                    lambda: omega.check_laws(structure(), kind), check)

    groups = [[axioms("one_param", "edus", i)] for i in
              rng.sample(range(ref.ENUMERATION_COUNTS[3, "edus"]), ONE_PARAM_CHECKS)]
    groups += [[axioms("two_param", "duplicial", i)] for i in
               rng.sample(range(ref.ENUMERATION_COUNTS[3, "duplicial"]),
                          TWO_PARAM_CHECKS)]
    for size, kind in CENSUS_ORDER[:7]:
        count = ref.ENUMERATION_COUNTS[size, kind]
        for index in rng.sample(range(count), LAW_CHECKS_PER_KIND):
            groups.append([law_check(kind, index, None)])
            cell = (rng.choice(_fields(kind)), rng.randrange(3), rng.randrange(3),
                    rng.randrange(1, 3))
            groups.append([law_check(kind, rng.randrange(count), cell)])
    # The short checks run three times, around the two size-4 enumerations
    # that take most of the round, so each check has repeats seconds apart
    # (see ``Task``).  On a repeat, ``omega.passes`` (the guard of the
    # one_param and two_param checks) is already cached.
    short = _shuffled(rng, groups)
    return ([enumeration(*key) for key in CENSUS_ORDER[:7]] + short
            + [enumeration(*CENSUS_ORDER[7])] + short
            + [enumeration(*CENSUS_ORDER[8])] + short)


# ---------------------------------------------------------------------------
# exact_algebra

R_ORDERS = (8, 16, 32, 64)
IDENTITY_ORDERS = (16, 32)
# The family checks are the one large population of like tasks here, so
# both p50 and p90 sit among them; the fixed calls are too few and too
# unlike for a percentile that falls among them to hold still.
RANDOM_FAMILIES = 300
OPERAD_LAWS = (("pairs", 4), ("corollas", 6), ("perm", 4))
SURJECTIONS = (("pairs", 3), ("corollas", 4), ("orders", 3))


def exact_algebra(seed: int, env) -> list[Task]:
    rng = random.Random(seed)
    groups = []

    def r_task(order: int) -> Task:
        def check(series):
            for n in range(1, order + 1):
                poly = series.r(n)
                if n in ref.R_POLYS:
                    expect(poly.coeffs == ref.R_POLYS[n], f"r_{n} differs")
                expect(poly(1) == ref.catalan(n + 1), f"r_{n}(1) is not Catalan")
            return {"order": order}
        return Task(f"dims.r_sequence.{order}", lambda: dims.r_sequence(order),
                    check, fixed=True)

    def identity_task(order: int) -> Task:
        def check(report):
            expect(report.passed, f"identities fail at order {order}")
            return {"order": order}
        return Task("dims.verify_identities", lambda: dims.verify_identities(order),
                    check, fixed=True)

    def count_task(n: int, w: int) -> Task:
        def check(value):
            expected = ref.poly_at(ref.R_POLYS[n], w)
            expect(value == expected, f"count_basis_trees({n}, {w}) = {value}, "
                                      f"r_{n}({w}) = {expected}")
            return {"count": value}
        return Task("dims.count_basis_trees", lambda: dims.count_basis_trees(n, w),
                    check, fixed=True)

    def quotient_task(name: str, arity: int) -> Task:
        p = presentations.preset(name)

        def check(classes):
            expected = ref.quotient_class_count(name, arity)
            expect(len(classes) == expected,
                   f"{len(classes)} {name} classes at arity {arity}, "
                   f"reference {expected}")
            return {"classes": len(classes)}
        return Task("presentations.quotient_classes",
                    lambda: presentations.quotient_classes(p, arity), check, fixed=True)

    def census_task(structure, arity: int) -> Task:
        p = presentations.preset("duplicial")
        tables = presentations.omega_algebra_from_structure(p, structure)

        def check(census):
            expect(census["consistent"], "census reports inconsistency")
            expect(census["classes"] == ref.quotient_class_count("duplicial", arity),
                   f"{census['classes']} classes at arity {arity}")
            expect(all(n == structure.size ** arity
                       for _, n in census["member_counts"]),
                   "a class count differs from w^arity")
            return {"classes": census["classes"]}
        return Task("presentations.mixing_census",
                    lambda: presentations.mixing_census(p, tables, arity), check)

    def operad_task(which: str, max_size: int) -> Task:
        def check(report):
            expect(report.passed, f"{which} operad laws fail at {max_size}")
            if which == "pairs":
                expect((report.details["seq_cases"], report.details["par_cases"])
                       == (9, 7), "pairs case partition is not 9 + 7")
            return _report_work(report)
        return Task(f"operads.laws.{which}",
                    lambda: operads.check_operad_laws(which, max_size), check, fixed=True)

    def roundtrip_check(report):
        expected = [ref.quotient_class_count("twist", n) for n in range(1, 6)]
        expect(report.passed and report.details["class_counts"] == expected,
               "twist quotient and pairs operad do not invert each other")
        return {"classes": sum(expected)}

    def surjection_task(which: str, max_size: int) -> Task:
        def check(report):
            expect(report.passed, f"{which} -> perm is not a surjective morphism")
            return _report_work(report)
        return Task(f"operads.surjection.{which}",
                    lambda: operads.perm_surjection(which, max_size), check, fixed=True)

    def family_group(a) -> list[Task]:
        """With one parameter value the family laws are the classical ones,
        so both checks must report the same violated triples."""
        structure = omega.ds_projections(1)
        got: dict = {}

        def family():
            got["family"] = linear.check_family_laws(a, structure, "dendriform2")
            return got["family"]

        def check(report):
            family_triples = {("C" + law[1:], args[:3])
                              for law, args in got["family"].witnesses}
            expect(family_triples == set(report.witnesses),
                   "family and classical witnesses differ")
            return _report_work(report)
        return [Task("linear.family_laws", family, _report_work),
                Task("linear.classic_laws",
                     lambda: linear.check_classic_laws(a, "dendriform"), check)]

    def passes_check(report):
        expect(report.passed, f"{report.kind} fails on a stock algebra")
        return _report_work(report)

    zinbiel = linear.zinbiel_truncated(3, 2)
    graded: dict = {}

    def make_graded():
        graded["g"] = linear.make_graded(zinbiel, omega.ds_projections(2), "dendriform")
        return graded["g"]

    prelie = linear.prelie_rooted_truncated(5)
    duplicials = omega.enumerate_structures(3, "duplicial")

    groups += [[r_task(order)] for order in R_ORDERS]
    groups += [[identity_task(order)] for order in IDENTITY_ORDERS]
    groups += [[count_task(n, w)] for n in range(1, 9) for w in range(1, 5)]
    groups += [[quotient_task(name, arity)]
               for name, bound in ref.PRESET_ARITY_BOUND.items()
               for arity in range(1, bound + 1)]
    for structure in rng.sample(duplicials, 2):
        groups += [[census_task(structure, arity)] for arity in (5, 6)]
    groups += [[operad_task(*args)] for args in OPERAD_LAWS]
    groups.append([Task("operads.psi_phi_roundtrip",
                        lambda: operads.psi_phi_roundtrip(5), roundtrip_check,
                        fixed=True)])
    groups += [[surjection_task(*args)] for args in SURJECTIONS]
    families = [family_group(linear.random_family(3, 1, ("prec", "succ"),
                                                  seed=rng.randrange(2 ** 31)))
                for _ in range(RANDOM_FAMILIES)]
    groups.append([
        Task("linear.make_graded", make_graded, lambda g: {"dim": g.dim}, fixed=True),
        Task("linear.classic_laws.zinbiel",
             lambda: linear.check_classic_laws(graded["g"], "dendriform"),
             passes_check, fixed=True)])
    groups.append([Task("linear.classic_laws.prelie",
                        lambda: linear.check_classic_laws(prelie, "prelie"),
                        passes_check, fixed=True)])
    # The family checks run before and after the other calls, so each has
    # a repeat seconds later (see ``Task``).
    families = _shuffled(rng, families)
    return families + _shuffled(rng, groups) + families


# ---------------------------------------------------------------------------
# cli_cold

FAMOP_MAIN = "import sys; from famop.cli import main; sys.exit(main())"
MAGMA_MIX_DEFECT = ("ROADMAP open item 5: present mix on a magma file raises "
                    "AttributeError and exits 1")


@dataclass
class CliRun:
    exit: int
    stdout: bytes
    stderr: bytes


class Famop:
    """Runs ``famop`` commands, one fresh interpreter at a time."""

    def __init__(self, env):
        self.env = env
        self.children = []   # span lists of traced children
        self.records = []    # per-child process/import/main times and output

    def __call__(self, argv) -> CliRun:
        env = self.env
        child_env = dict(os.environ, PYTHONPATH=env.src)
        task = env.tracer.task if env.tracer else None
        record_path = os.path.join(env.tmpdir, f"child-{len(self.records)}.json")
        if env.tracer:
            cmd = [sys.executable, os.path.join(env.bench, "famop_traced.py"),
                   record_path, *argv]
        else:
            cmd = [sys.executable, "-c", FAMOP_MAIN, *argv]
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env, cwd=env.root)
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        total = time.monotonic() - launch
        if env.tracer:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            os.unlink(record_path)
            spans = record.pop("spans")
            for span in spans:
                span[4] = task
            self.children.append(spans)
            record["process_s"] = total - record["import_s"] - record["main_s"]
            record["stdout_bytes"] = len(out)
            record["exit"] = proc.returncode
            self.records.append(record)
        return CliRun(proc.returncode, out, err)


def cli_metrics(records) -> dict:
    out = {"cli.process_s": 0.0, "cli.import_s": 0.0, "cli.main_s": 0.0,
           "cli.stdout_bytes": 0}
    out.update({f"cli.exit.{code}": 0 for code in range(4)})
    for record in records:
        for key in ("process_s", "import_s", "main_s", "stdout_bytes"):
            out[f"cli.{key}"] += record[key]
        key = f"cli.exit.{record['exit']}"
        out[key] = out.get(key, 0) + 1
    return out


def _command(famop, label, argv, code, verify=None, known_defect=None) -> Task:
    """A famop command that must exit with ``code``, print one stderr line
    without a traceback, and print JSON accepted by ``verify``."""
    def check(run: CliRun):
        err = run.stderr.decode("utf-8", "replace")
        expect(run.exit == code, f"exit {run.exit}, expected {code}"
               + ("; traceback in stderr" if "Traceback" in err else ""))
        expect("Traceback" not in err, "traceback in stderr")
        expect(len(err.strip().splitlines()) == 1,
               f"stderr has {len(err.strip().splitlines())} lines")
        if code == 2:
            expect(run.stdout == b"", "usage error printed to stdout")
            return {"stdout_bytes": 0}
        payload = json.loads(run.stdout)
        if code == 3:
            expect("error" in payload, "resource error without an error body")
        else:
            verify(payload)
        return {"stdout_bytes": len(run.stdout)}
    return Task(label, lambda: famop(argv), check, known_defect=known_defect)


def cli_cold(seed: int, env) -> list[Task]:
    rng = random.Random(seed)
    famop = env.famop = Famop(env)
    tasks = []
    files = 0

    def write(payload) -> str:
        nonlocal files
        path = os.path.join(env.tmpdir, f"input-{files}.json")
        files += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def add(label, argv, code, verify=None, known_defect=None):
        tasks.append(_command(famop, label, argv, code, verify, known_defect))

    def same_report(report):
        def verify(payload):
            expect(payload["passed"] == report.passed, "verdict differs from the API")
            expect(len(payload["witnesses"]) == len(report.witnesses),
                   "witness count differs from the API")
            for key, value in report.details.items():
                expect(payload[key] == value, f"{key} differs from the API")
        return verify

    # omega check: a member and a failing one-cell perturbation per slot.
    slots = [(2, kind) for kind in omega.KIND_LAWS] + [
        (3, "diassociative"), (3, "duplicial"), (3, "associative")]
    for size, kind in slots:
        found = omega.enumerate_structures(size, kind)
        for member in rng.sample(found, len(found)):
            bad = [p for p in (_perturbed(member, field, row, col, shift)
                               for field in _fields(kind) for row in range(size)
                               for col in range(size) for shift in range(1, size))
                   if not omega.check_laws(p, kind).passed]
            if bad:
                break
        for s in (member, rng.choice(bad)):
            report = omega.check_laws(s, kind)
            add("omega.check", ["omega", "check", "--kind", kind,
                                "--input", write(s.to_json())],
                0 if report.passed else 1, same_report(report))

    # omega enumerate: sizes 1-3, every kind, except size-3 edus.
    for size in (1, 2, 3):
        for kind in omega.KIND_LAWS:
            if (size, kind) == (3, "edus"):
                continue
            count = len(omega.enumerate_structures(size, kind))
            expected = ref.A023814[size] if kind == "associative" else count

            def verify(payload, count=count, expected=expected):
                expect(payload["count"] == count == expected,
                       f"count {payload['count']}, API {count}, reference {expected}")
                expect(len(payload["structures"]) == count, "structure list length")
            add("omega.enumerate", ["omega", "enumerate", "--size", str(size),
                                    "--kind", kind], 0, verify)

    edus2 = omega.enumerate_structures(2, "edus")
    dup2 = omega.enumerate_structures(2, "duplicial")
    dup3 = omega.enumerate_structures(3, "duplicial")
    edus_members = ref.edus_quadruples(2)
    tables2 = ref.all_tables(2)

    def non_edus():
        while True:
            quad = tuple(rng.choice(tables2) for _ in range(4))
            if quad not in edus_members:
                return omega.OmegaStructure(2, *quad)

    def non_duplicial():
        while True:
            s = omega.OmegaStructure(2, rng.choice(tables2), rng.choice(tables2))
            if not omega.check_laws(s, "duplicial").passed:
                return s

    # trees product: three of each mode on seeded trees.
    single = [t for n in (1, 2, 3) for t in trees.enumerate_trees(n, 1, 2, "single")]
    pair = [t for n in (1, 2) for t in trees.enumerate_trees(n, 1, 2, "pair")]
    for mode in ("prec1", "succ1", "prec2", "succ2"):
        for _ in range(3):
            if mode.endswith("1"):
                s, pool, params = rng.choice(edus2), single, [rng.randrange(2)]
                left, right = rng.choice(pool), rng.choice(pool)
                result = getattr(duplicial, mode)(left, right, params[0], s)
            else:
                s, pool = rng.choice(dup2), pair
                params = [rng.randrange(2), rng.randrange(2)]
                left, right = rng.choice(pool), rng.choice(pool)
                result = getattr(duplicial, mode)(left, right, *params, s)
            text = trees.serialize(result)

            def verify(payload, text=text):
                expect(payload["result"] == text, "product differs from the API")
            add("trees.product", ["trees", "product", "--mode", mode,
                                  "--omega", write(s.to_json()),
                                  "--param", ",".join(map(str, params)),
                                  trees.serialize(left), trees.serialize(right)],
                0, verify)

    # family check: passing and failing structures in every mode.
    family = ([("one_param", lambda: rng.choice(edus2), mv) for mv in (2, 3, 3, 2)]
              + [("one_param", non_edus, 2)] * 3
              + [("two_param", lambda: rng.choice(dup2), 3)] * 2
              + [("two_param", lambda: rng.choice(dup3), 3)] * 2
              + [("two_param", non_duplicial, 2)] * 3
              + [("graded", lambda: rng.choice(edus2), 2)] * 3
              + [("graded", non_edus, mv) for mv in (1, 2, 2)])
    for mode, pick, mv in family:
        s = pick()
        report = duplicial.check_axioms(mode, s, max_vertices=mv)
        add("family.check", ["family", "check", "--mode", mode, "--omega",
                             write(s.to_json()), "--max-vertices", str(mv)],
            0 if report.passed else 1, same_report(report))

    # operad check and iso.
    operad_names = {"twist": "pairs", "corolla": "corollas", "perm": "perm"}
    for which, bound in (("twist", 2), ("twist", 3), ("corolla", 4),
                         ("corolla", 5), ("perm", 3), ("perm", 4)):
        report = operads.check_operad_laws(operad_names[which], bound)
        add("operad.check", ["operad", "check", "--which", which, "--max",
                             str(bound)], 0, same_report(report))
    for arity in (3, 4, 5):
        report = operads.psi_phi_roundtrip(arity)
        expected = [ref.quotient_class_count("twist", n) for n in range(1, arity + 1)]

        def verify(payload, report=report, expected=expected):
            same_report(report)(payload)
            expect(payload["class_counts"] == expected, "twist class counts")
        add("operad.iso", ["operad", "iso", "--max-arity", str(arity)], 0, verify)

    # present quotient: every preset at its arity bound, where the time
    # goes, and at one seeded lower arity.
    for name, arity in [(name, a) for name, bound in ref.PRESET_ARITY_BOUND.items()
                        for a in (bound, rng.randrange(1, bound))]:
        expected = ref.quotient_class_count(name, arity)

        def verify(payload, expected=expected):
            expect(payload["classes"] == expected == len(payload["representatives"]),
                   f"{payload['classes']} classes, reference {expected}")
        add("present.quotient", ["present", "quotient", "--preset", name,
                                 "--arity", str(arity)], 0, verify)

    # present mix: census and single queries, one associative census on a
    # magma file, and the duplicial preset on a magma file (the known crash).
    dup_preset = presentations.preset("duplicial")
    magma = omega.Magma(2, [[0, 0], [0, 0]])
    magma_file = write(magma.to_json())
    for s, arity, name, path in (
            (rng.choice(dup2), 3, "duplicial", None),
            (rng.choice(dup2), 4, "duplicial", None),
            (rng.choice(dup3), 3, "duplicial", None),
            (magma, 3, "associative", magma_file)):
        expected = ref.quotient_class_count(name, arity)

        def verify(payload, expected=expected, total=s.size ** arity):
            expect(payload["consistent"] and payload["classes"] == expected,
                   "census class count")
            expect(all(n == total for _, n in payload["member_counts"]),
                   "a census count differs from w^arity")
        add("present.mix", ["present", "mix", "--preset", name, "--omega",
                            path or write(s.to_json()), "--arity", str(arity)],
            0, verify)
    for _ in range(4):
        s = rng.choice(dup2 + dup3)
        arity = rng.randrange(2, 5)
        coloring = [rng.randrange(s.size) for _ in range(arity)]
        output = rng.randrange(s.size)
        result = presentations.mixing_filter(
            dup_preset, presentations.omega_algebra_from_structure(dup_preset, s),
            arity, coloring, output)
        members = [presentations.serialize_term(t) for t in result.members]

        def verify(payload, members=members):
            expect(payload["members"] == members, "mixing members differ from the API")
        add("present.mix", ["present", "mix", "--preset", "duplicial", "--omega",
                            write(s.to_json()), "--arity", str(arity), "--coloring",
                            ",".join(map(str, coloring)), "--output", str(output)],
            0, verify)
    add("present.mix.magma", ["present", "mix", "--preset", "duplicial", "--omega",
                              magma_file, "--arity", "3"], 2,
        known_defect=MAGMA_MIX_DEFECT)

    # dims r and dims count.
    for i, n in enumerate(rng.sample(range(2, 17), 8)):
        series = dims.r_sequence(n)
        poly = series.r(n)
        flags = (["--eval", str(rng.randrange(1, 5))] if i < 2 else
                 ["--verify"] if i < 4 else [])

        def verify(payload, n=n, poly=poly, flags=flags):
            expect(payload["poly"] == json.dumps(poly.to_json(), separators=(",", ":")),
                   f"r_{n} differs from the API")
            if n in ref.R_POLYS:
                expect(json.loads(payload["poly"]) == list(ref.R_POLYS[n]),
                       f"r_{n} differs from the reference")
            if "--eval" in flags:
                expect(payload["value_at"]["v"] == str(poly(int(flags[1]))),
                       "value differs")
            if "--verify" in flags:
                expect(payload["identities"]["passed"], "identities fail")
        add("dims.r", ["dims", "r", "--n", str(n), *flags], 0, verify)
    for n, w in rng.sample([(n, w) for n in range(1, 9) for w in range(1, 5)], 8):
        expected = ref.poly_at(ref.R_POLYS[n], w)

        def verify(payload, expected=expected):
            expect(payload["count"] == str(expected), "count differs from r_n(w)")
        add("dims.count", ["dims", "count", "--n", str(n), "--w", str(w)], 0, verify)

    # Malformed JSON (exit 2) and over-bound sizes (exit 3).
    broken = write('{"size": 2, "left_arrow": [[0, 1], [1')
    for argv in (["omega", "check", "--kind", "duplicial", "--input", broken],
                 ["family", "check", "--mode", "one_param", "--omega", broken],
                 ["trees", "product", "--mode", "prec1", "--omega", broken,
                  "--param", "0", "(x0 . . _ _)", "(x0 . . _ _)"],
                 ["present", "mix", "--preset", "duplicial", "--omega", broken,
                  "--arity", "3"]):
        add("malformed", argv, 2)
    for argv in (["omega", "enumerate", "--size", "4", "--kind", "associative"],
                 ["dims", "r", "--n", "65"],
                 ["dims", "count", "--n", "9", "--w", "2"],
                 ["present", "quotient", "--preset", "prelie", "--arity", "6"]):
        add("over_bound", argv, 3)

    rng.shuffle(tasks)
    return tasks


WORKLOADS = {"graded_iff": graded_iff, "table_census": table_census,
             "exact_algebra": exact_algebra, "cli_cold": cli_cold}
