"""Family products on typed trees: pins, axiom checkers, free morphism."""
import itertools
import random

import pytest

from famop import duplicial, omega, trees
from famop.duplicial import (FreeAlgebraTarget, GradedElement, check_axioms,
                             free_morphism_eval, free_morphism_eval_alt,
                             graded_prec, graded_succ, prec1, prec2, succ1,
                             succ2, tree_generator)
from famop.errors import PreconditionError, ResourceBoundError
from famop.omega import OmegaStructure, ds_projections, enumerate_structures
from famop.report import LawReport
from famop.trees import parse, serialize

PROJ2 = ds_projections(2)
RIGHT2 = OmegaStructure(2, [[0, 1], [0, 1]], [[0, 1], [0, 1]])  # both arrows b
EDUS2 = enumerate_structures(2, "edus")
NON_DUPLICIAL = OmegaStructure(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
NON_EDUS = OmegaStructure(2, [[0, 0], [0, 0]], [[0, 0], [0, 0]],
                          [[0, 1], [1, 0]], [[0, 0], [0, 0]])


def x_():
    return tree_generator("x")


def y_():
    return tree_generator("y")


# --- two-parameter products --------------------------------------------------

def test_prec2_single_vertices():
    got = prec2(x_(), y_(), 0, 1, PROJ2)
    assert serialize(got) == "(x . 0:1 _ (y . . _ _))"


def test_succ2_single_vertices():
    got = succ2(x_(), y_(), 0, 1, PROJ2)
    assert serialize(got) == "(y 0:1 . (x . . _ _) _)"


def test_prec2_retyping_on_the_worked_shapes():
    # s has root x with children y, z; t has root m with right child n.
    s = parse("(x 0:1 1:0 (y . . _ _) (z . . _ _))")
    t = parse("(m . 1:1 _ (n . . _ _))")
    # left arrows are projections: second components keep their value,
    # t's first component becomes alpha <- omega = alpha = 0.
    got = prec2(s, t, 0, 1, PROJ2)
    assert serialize(got) == ("(x 0:1 1:0 (y . . _ _) "
                              "(z . 0:1 _ (m . 0:1 _ (n . . _ _))))")
    # with both arrows b (right projections) the updates hit instead:
    # s second components become beta = 1, t first component stays 1.
    got = prec2(s, t, 0, 1, RIGHT2)
    assert serialize(got) == ("(x 0:1 1:1 (y . . _ _) "
                              "(z . 0:1 _ (m . 1:1 _ (n . . _ _))))")


def test_succ2_retyping_on_the_worked_shapes():
    s = parse("(x 0:1 1:0 (y . . _ _) (z . . _ _))")
    t = parse("(m . 1:1 _ (n . . _ _))")
    # right arrow of PROJ2 sends (a, b) to b: s second components become 1,
    # t first component becomes 1; s lands at the leftmost leaf of t.
    got = succ2(s, t, 0, 1, PROJ2)
    assert serialize(got) == ("(m 0:1 1:1 "
                              "(x 0:1 1:1 (y . . _ _) (z . . _ _)) (n . . _ _))")


def test_two_param_collapses_to_plain_grafting_for_one_color():
    one = ds_projections(1)
    a = prec2(x_(), y_(), 0, 0, one)
    assert serialize(a) == "(x . 0:0 _ (y . . _ _))"
    b = prec2(a, tree_generator("z"), 0, 0, one)
    # grafting at the rightmost leaf, i.e. below y
    assert serialize(b) == "(x . 0:0 _ (y . 0:0 _ (z . . _ _)))"
    c = succ2(a, tree_generator("z"), 0, 0, one)
    assert serialize(c) == "(z 0:0 . (x . 0:0 _ (y . . _ _)) _)"


@pytest.mark.parametrize("product,left,right,params", [
    (prec2, "(x . . _ _)", "(y . . _ _)", (0, 5)),
    (prec2, "(x . . _ _)", "(y . . _ _)", (-1, 0)),
    (succ2, "(x . . _ _)", "(y . . _ _)", (0, True)),
    (prec1, "(x . . _ _)", "(y . . _ _)", (-1,)),
    (succ1, "(x . . _ _)", "(y . . _ _)", (5,)),
    (prec1, "(x . . _ _)", "(y . . _ _)", (0.0,)),
    (prec2, "(x . 0 _ (z . . _ _))", "(y . . _ _)", (0, 1)),
    (succ1, "(x . 0:1 _ (z . . _ _))", "(y . . _ _)", (1,)),
    (prec2, "(x . . _ _)", "(y . 9:0 _ (z . . _ _))", (0, 1)),
    (succ1, "(x . . _ _)", "(y 9 . (z . . _ _) _)", (1,)),
])
def test_products_reject_out_of_range_and_wrong_flavor(product, left, right, params):
    structure = PROJ2 if product in (prec2, succ2) else EDUS2[0]
    with pytest.raises(PreconditionError):
        product(parse(left), parse(right), *params, structure)


def test_products_reject_leaves_and_bad_structures():
    with pytest.raises(PreconditionError):
        prec2(trees.Leaf, y_(), 0, 0, PROJ2)
    with pytest.raises(PreconditionError):
        succ2(x_(), trees.Leaf, 0, 0, PROJ2)
    with pytest.raises(PreconditionError):
        prec2(x_(), y_(), 0, 0, NON_DUPLICIAL)
    with pytest.raises(PreconditionError):
        prec1(x_(), y_(), 0, PROJ2)  # no triangles
    with pytest.raises(PreconditionError):
        prec1(x_(), y_(), 0, NON_EDUS)


@pytest.mark.parametrize("product,params", [
    (prec1, (1,)), (succ1, (1,)), (prec2, (0, 1)), (succ2, (0, 1)),
])
def test_products_reject_a_magma(product, params):
    magma = omega.Magma.from_json({"size": 2, "table": [[0, 0], [0, 0]]})
    with pytest.raises(PreconditionError):
        product(x_(), y_(), *params, magma)


# --- one-parameter products --------------------------------------------------

def test_prec1_succ1_single_vertices():
    e = EDUS2[0]
    assert serialize(prec1(x_(), y_(), 1, e)) == "(x . 1 _ (y . . _ _))"
    assert serialize(succ1(x_(), y_(), 1, e)) == "(y 1 . (x . . _ _) _)"


def test_prec1_nested_law_instance_on_generators():
    # (x prec_a y) prec_b z equals x prec_{a<-b} (y prec_{a lt b} z)
    for e in EDUS2[::23]:
        for a in range(2):
            for b in range(2):
                lhs = prec1(prec1(x_(), y_(), a, e), tree_generator("z"), b, e)
                rhs = prec1(x_(), prec1(y_(), tree_generator("z"),
                                        e.lt(a, b), e), e.la(a, b), e)
                assert lhs == rhs


# --- the factored checker against a direct scan ------------------------------

def _direct_two_param(structure, max_vertices=2):
    """Literal scan over all typed tree triples and parameters."""
    pool = []
    for n in range(1, max_vertices + 1):
        pool.extend(trees.enumerate_trees(n, 1, structure.size, "pair"))
    laws = duplicial._MODE_LAWS["two_param"]
    for s, t, u in itertools.product(pool, repeat=3):
        for params in itertools.product(range(structure.size), repeat=3):
            for law_id, law in laws:
                lhs, rhs = law(s, t, u, *params, structure)
                if lhs != rhs:
                    return False
    return True


def _direct_one_param(structure, max_vertices=2):
    pool = []
    for n in range(1, max_vertices + 1):
        pool.extend(trees.enumerate_trees(n, 1, structure.size, "single"))
    laws = duplicial._MODE_LAWS["one_param"]
    for s, t, u in itertools.product(pool, repeat=3):
        for a, b in itertools.product(range(structure.size), repeat=2):
            for law_id, law in laws:
                lhs, rhs = law(s, t, u, a, b, None, structure)
                if lhs != rhs:
                    return False
    return True


def test_factored_checker_agrees_with_direct_scan_two_param():
    samples = [PROJ2, RIGHT2, NON_DUPLICIAL,
               OmegaStructure(2, [[0, 0], [0, 0]], [[0, 1], [1, 0]])]
    for s in samples:
        direct = _direct_two_param(s)
        factored = check_axioms("two_param", s, max_vertices=2).passed
        assert direct == factored


def test_factored_checker_agrees_with_direct_scan_one_param():
    samples = [EDUS2[0], EDUS2[40], NON_EDUS,
               OmegaStructure(2, [[0, 0], [0, 0]], [[0, 0], [0, 0]],
                              [[0, 0], [0, 0]], [[1, 1], [0, 0]])]
    for s in samples:
        direct = _direct_one_param(s)
        factored = check_axioms("one_param", s, max_vertices=2).passed
        assert direct == factored


def _per_obligation(mode, o, max_vertices, first_witness_only):
    """The factored check with one compiled call per obligation, each
    violated obligation reported at its first point, in obligation order."""
    report = LawReport(kind=mode)
    obligations = duplicial._obligations(mode, max_vertices)
    report.details["obligations"] = len(obligations)
    tables = omega.tables_by_op(o, ("la", "ra", "lt", "rt") if mode == "one_param"
                                else ("la", "ra"))
    for ob in obligations:
        found = omega.first_violation((ob.law,), tables, o.size)
        if found is not None:
            env = dict(zip(ob.var_names, found[1]))
            report.add(ob.law[0], duplicial._concrete_witness(mode, ob, env, o))
            if first_witness_only:
                return report
    report.details["max_vertices"] = max_vertices
    return report


@pytest.mark.slow
def test_one_verdict_call_reports_like_the_per_obligation_walk():
    cells = [[list(c[:2]), list(c[2:])] for c in itertools.product(range(2), repeat=4)]
    runs = [("one_param", OmegaStructure(2, *q), 2)
            for q in itertools.product(cells, repeat=4)]
    runs += [("two_param", OmegaStructure(2, l, r), k)
             for l in cells for r in cells for k in (2, 3)]
    failed = 0
    for mode, s, k in runs:
        for first in (False, True):
            got = check_axioms(mode, s, max_vertices=k, first_witness_only=first).to_json()
            assert got == _per_obligation(mode, s, k, first).to_json()
            failed += not got["passed"]
    assert len(runs) == 65536 + 512 and failed == 2 * (65536 - 576 + 2 * (256 - 27))


def test_a_passing_structure_makes_one_compiled_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return omega.first_violation(*args, **kwargs)

    monkeypatch.setattr(duplicial, "first_violation", counting)
    for mode, s in (("two_param", PROJ2), ("one_param", EDUS2[0]), ("graded", EDUS2[0])):
        for first in (False, True):
            calls.clear()
            assert check_axioms(mode, s, max_vertices=3, first_witness_only=first).passed
            assert len(calls) == 1
            assert len(calls[0]) == len(duplicial._obligations(mode, 3))
    calls.clear()
    assert not check_axioms("one_param", NON_EDUS, max_vertices=3).passed
    assert len(calls) == 1 + len(duplicial._obligations("one_param", 3))


# --- the tree laws from the duplicial relation against literal ones -----------

_P, _S = duplicial._prec2_raw, duplicial._succ2_raw


def _literal_tp1(s, t, u, a, b, c, ops):
    lhs = _P(_P(s, t, a, b, ops), u, ops.la(a, b), c, ops)
    rhs = _P(s, _P(t, u, b, c, ops), a, ops.la(b, c), ops)
    return lhs, rhs


def _literal_tp2(s, t, u, a, b, c, ops):
    lhs = _P(_S(s, t, a, b, ops), u, ops.ra(a, b), c, ops)
    rhs = _S(s, _P(t, u, b, c, ops), a, ops.la(b, c), ops)
    return lhs, rhs


def _literal_tp3(s, t, u, a, b, c, ops):
    lhs = _S(s, _S(t, u, b, c, ops), a, ops.ra(b, c), ops)
    rhs = _S(_S(s, t, a, b, ops), u, ops.ra(a, b), c, ops)
    return lhs, rhs


def test_tree_laws_from_the_relation_match_the_literal_ones(monkeypatch):
    tables = [[list(cells[:2]), list(cells[2:])]
              for cells in itertools.product(range(2), repeat=4)]
    pairs = [OmegaStructure(2, l, r) for l in tables for r in tables]
    failing = [s for s in pairs if not omega.passes(s, "duplicial")]
    samples = enumerate_structures(2, "duplicial") + random.Random(6).sample(failing, 40)
    assert len(samples) == 67

    def reports():
        return ([[ob.law for ob in duplicial._obligations("two_param", n)] for n in (2, 3)]
                + [check_axioms("two_param", s, max_vertices=n).to_json()
                   for n in (2, 3) for s in samples])

    derived = reports()
    duplicial._obligations.cache_clear()
    monkeypatch.setitem(duplicial._MODE_LAWS, "two_param",
                        (("TP1", _literal_tp1), ("TP2", _literal_tp2), ("TP3", _literal_tp3)))
    try:
        literal = reports()
    finally:
        duplicial._obligations.cache_clear()
    assert derived == literal
    assert sum(not r["passed"] for r in literal[2:]) == 80


def test_retype_visits_lt_left_rt_right():
    t = parse("(r 0 0 (a . 0 _ (b . . _ _)) (c . . _ _))")
    counter = itertools.count()
    numbered = duplicial._retype(t, lambda _: next(counter))
    assert serialize(numbered) == "(r 0 2 (a . 1 _ (b . . _ _)) (c . . _ _))"


def test_two_param_passes_over_small_duplicial_structures():
    for s in (enumerate_structures(1, "duplicial")
              + enumerate_structures(2, "duplicial")):
        assert check_axioms("two_param", s, max_vertices=3).passed


def test_two_param_fails_with_verified_witness():
    report = check_axioms("two_param", NON_DUPLICIAL, max_vertices=3,
                          first_witness_only=True)
    assert not report.passed
    law, args = report.witnesses[0]
    assert law in ("TP1", "TP2", "TP3")
    s, t, u = (parse(args[i]) for i in range(3))
    a, b, c = args[3:]
    fn = dict(duplicial._MODE_LAWS["two_param"])[law]
    lhs, rhs = fn(s, t, u, a, b, c, NON_DUPLICIAL)
    assert lhs != rhs


def test_one_param_passes_over_every_size2_edus():
    for s in EDUS2:
        assert check_axioms("one_param", s, max_vertices=3).passed


def test_one_param_fails_on_non_edus_with_witness():
    report = check_axioms("one_param", NON_EDUS, max_vertices=3,
                          first_witness_only=True)
    assert not report.passed
    law, args = report.witnesses[0]
    s, t, u = (parse(args[i]) for i in range(3))
    a, b = args[3:5]
    fn = dict(duplicial._MODE_LAWS["one_param"])[law]
    lhs, rhs = fn(s, t, u, a, b, None, NON_EDUS)
    assert lhs != rhs


def test_decorations_do_not_change_factored_reports():
    for mode, samples in (("one_param", [EDUS2[0], EDUS2[40], NON_EDUS]),
                          ("two_param", [PROJ2, NON_DUPLICIAL])):
        for s in samples:
            for first in (False, True):
                one, two = (check_axioms(mode, s, x_size=x, max_vertices=3,
                                         first_witness_only=first).to_json()
                            for x in (1, 2))
                assert one == two


def test_graded_iff_on_sample_candidates():
    assert check_axioms("graded", EDUS2[0], max_vertices=2).passed
    assert check_axioms("graded", EDUS2[100], max_vertices=2).passed
    report = check_axioms("graded", NON_EDUS, max_vertices=2,
                          first_witness_only=True)
    assert not report.passed


def _literal_graded(o, x_size, max_vertices, first_witness_only):
    """The graded scan with G1-G3 written out by hand."""
    report = LawReport(kind="graded")
    elements = [GradedElement(t, c) for n in range(1, max_vertices + 1)
                for t in trees.enumerate_trees(n, x_size, o.size, "single")
                for c in range(o.size)]
    cache = {}

    def prod(op, x, y):
        key = (op, x, y)
        if key not in cache:
            cache[key] = graded_prec(x, y, o) if op == 0 else graded_succ(x, y, o)
        return cache[key]

    n_checked = 0
    for x, y, z in itertools.product(elements, repeat=3):
        checks = (
            ("G1", prod(0, prod(0, x, y), z), prod(0, x, prod(0, y, z))),
            ("G2", prod(0, prod(1, x, y), z), prod(1, x, prod(0, y, z))),
            ("G3", prod(1, x, prod(1, y, z)), prod(1, prod(1, x, y), z)),
        )
        n_checked += 3
        for law_id, lhs, rhs in checks:
            if lhs != rhs:
                report.add(law_id, (serialize(x.tree), x.color, serialize(y.tree),
                                    y.color, serialize(z.tree), z.color))
                if first_witness_only:
                    report.details["instances"] = n_checked
                    return report
    report.details["instances"] = n_checked
    report.details["max_vertices"] = max_vertices
    return report


def test_graded_laws_from_the_relation_match_the_literal_scan():
    cells = [[list(c[:2]), list(c[2:])] for c in itertools.product(range(2), repeat=4)]
    rng = random.Random(9)
    non_edus = []
    while len(non_edus) < 40:
        s = OmegaStructure(2, *(rng.choice(cells) for _ in range(4)))
        if not omega.passes(s, "edus"):
            non_edus.append(s)
    edus = EDUS2[5::10]
    # A full scan of one structure at max_vertices=2 takes about 50 ms with
    # x_size=1 and 3 s with x_size=2, so those bounds run on fewer samples.
    runs = [(1, x, first, edus + non_edus) for x in (1, 2) for first in (False, True)]
    runs += [(2, 1, True, edus[::4] + non_edus), (2, 1, False, edus[:2] + non_edus[:2]),
             (2, 2, True, non_edus), (3, 1, True, non_edus)]
    failed = 0
    for max_vertices, x_size, first, samples in runs:
        for s in samples:
            got = check_axioms("graded", s, x_size=x_size, max_vertices=max_vertices,
                               first_witness_only=first).to_json()
            assert got == _literal_graded(s, x_size, max_vertices, first).to_json()
            failed += not got["passed"]
    assert failed == 4 * 40 + 40 + 2 + 40 + 40


def test_a_passing_graded_check_builds_no_elements(monkeypatch):
    counts = {}
    for x_size, max_vertices in ((1, 2), (2, 3)):
        elements, _ = duplicial._graded_scan(max_vertices, x_size, 2)
        counts[x_size, max_vertices] = 3 * len(elements) ** 3
    monkeypatch.setattr(duplicial, "_graded_scan", None)
    for (x_size, max_vertices), instances in counts.items():
        report = check_axioms("graded", EDUS2[7], x_size=x_size, max_vertices=max_vertices)
        assert report.passed and report.details["instances"] == instances
    one = enumerate_structures(1, "edus")[0]
    report = check_axioms("graded", one, x_size=40, max_vertices=3)
    assert report.details["instances"] == 3 * (40 + 2 * 40 ** 2 + 5 * 40 ** 3) ** 3
    with pytest.raises(ResourceBoundError):
        check_axioms("graded", one, x_size=50, max_vertices=3)


def test_graded_obligation_counts():
    assert [len(duplicial._obligations("graded", k)) for k in (1, 2, 3)] == [9, 27, 53]


def test_graded_products_color_rule():
    e = next(s for s in EDUS2 if len({v for r in s.left_arrow for v in r}) > 1)
    a = GradedElement(x_(), 0)
    b = GradedElement(y_(), 1)
    assert graded_prec(a, b, e).color == e.la(0, 1)
    assert graded_succ(a, b, e).color == e.ra(0, 1)
    assert graded_prec(a, b, e).tree == duplicial._prec1_raw(
        x_(), e.lt(0, 1), y_(), e)


def test_check_axioms_mode_validation():
    with pytest.raises(PreconditionError):
        check_axioms("one_param", PROJ2)
    with pytest.raises(ValueError):
        check_axioms("nonsense", EDUS2[0])
    for max_vertices in (0, -1):
        with pytest.raises(ValueError):
            check_axioms("two_param", PROJ2, max_vertices=max_vertices)


@pytest.mark.parametrize("mode,structure,x_size,max_vertices", [
    ("two_param", PROJ2, 1, 5), ("one_param", EDUS2[0], 1, 5), ("graded", EDUS2[0], 1, 5),
    ("graded", NON_EDUS, 2, 3),
])
def test_check_axioms_over_the_budget_raises(mode, structure, x_size, max_vertices):
    # Building the obligations runs 3 x 64³ laws at 5 vertices; a failing
    # graded structure of size 2 at 3 vertices and 2 decorations scans 3 x 356³.
    with pytest.raises(ResourceBoundError):
        check_axioms(mode, structure, x_size=x_size, max_vertices=max_vertices)


# --- the universal morphism --------------------------------------------------

def _tree_pool(structure, max_vertices, x_size=1):
    out = []
    for n in range(1, max_vertices + 1):
        out.extend(trees.enumerate_trees(n, x_size, structure.size, "single"))
    return out


def test_free_morphism_identity_on_canonical_embedding():
    e = EDUS2[60]
    target = FreeAlgebraTarget(e)
    for t in _tree_pool(e, 3):
        assert free_morphism_eval(tree_generator, target, t) == t


def test_free_morphism_is_a_homomorphism():
    e = EDUS2[60]
    target = FreeAlgebraTarget(e)
    image = {"x0": prec1(tree_generator("a"), tree_generator("b"), 1, e)}
    f = image.__getitem__
    pool = _tree_pool(e, 2)
    for t, u in itertools.product(pool, repeat=2):
        for w in range(2):
            bar_t = free_morphism_eval(f, target, t)
            bar_u = free_morphism_eval(f, target, u)
            assert free_morphism_eval(f, target, prec1(t, u, w, e)) == \
                target.prec(bar_t, w, bar_u)
            assert free_morphism_eval(f, target, succ1(t, u, w, e)) == \
                target.succ(bar_t, w, bar_u)


def test_free_morphism_factorization_agrees():
    e = EDUS2[60]
    target = FreeAlgebraTarget(e)
    image = {"x0": tree_generator("a"),
             "x1": succ1(tree_generator("a"), tree_generator("b"), 0, e)}
    f = image.__getitem__
    for t in _tree_pool(e, 3, x_size=2):
        assert free_morphism_eval(f, target, t) == \
            free_morphism_eval_alt(f, target, t)


def test_free_morphism_rejects_leaf():
    with pytest.raises(PreconditionError):
        free_morphism_eval(tree_generator, FreeAlgebraTarget(EDUS2[0]), trees.Leaf)
