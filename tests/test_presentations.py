"""Presented quotients, colored composition, color-mixing membership."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famop import omega
from famop import presentations as pr
from famop.errors import (MixingConsistencyError, ParseError,
                          PreconditionError, ResourceBoundError)
from famop.omega import Magma, OmegaStructure, ds_projections, eval_term
from famop.presentations import (ColoredTerm, Presentation, colored_compose,
                                 compose_terms, color_change, enumerate_terms,
                                 forget, mixing_census, mixing_filter,
                                 parse_term, partition_terms, preset,
                                 quotient_classes, serialize_term, term_arity,
                                 term_leaves, uniformize)


def test_enumerate_counts():
    assert len(enumerate_terms(preset("twist"), 2)) == 2
    assert len(enumerate_terms(preset("twist"), 3)) == 12
    assert len(enumerate_terms(preset("duplicial"), 3)) == 8
    assert len(enumerate_terms(preset("duplicial"), 2)) == 2
    assert len(enumerate_terms(preset("prelie"), 3)) == 12


def test_enumerate_bounds():
    with pytest.raises(ResourceBoundError):
        enumerate_terms(preset("duplicial"), 7)
    with pytest.raises(ResourceBoundError):
        enumerate_terms(preset("prelie"), 6)


@pytest.mark.parametrize("name,expected", [
    ("duplicial", [2, 5, 14]),
    ("dendriform", [2, 3, 4]),
    ("prelie", [2, 3, 4]),
    ("associative", [1, 1, 1]),
    ("twist", [2, 6, 12]),
])
def test_quotient_class_counts(name, expected):
    p = preset(name)
    assert [len(quotient_classes(p, n)) for n in (2, 3, 4)] == expected


def test_napnap_classes_split_each_shape_by_its_last_leaf():
    # Each relation swaps the first two leaves of one arity-3 shape.
    classes = quotient_classes(preset("napnap"), 3)
    assert [len(c) for c in classes] == [2] * 6
    for a, b in classes:
        assert isinstance(a[1], int) == isinstance(b[1], int)  # one shape
        assert term_leaves(a)[-1] == term_leaves(b)[-1]


def test_arity_two_classes_are_the_generators():
    for name in ("duplicial", "dendriform"):
        classes = quotient_classes(preset(name), 2)
        assert [serialize_term(c[0]) for c in classes] \
            == ["(prec 1 2)", "(succ 1 2)"]


def test_partition_is_order_independent():
    p = preset("duplicial")
    terms = enumerate_terms(p, 4)
    baseline = partition_terms(terms, p.relations)
    rng = random.Random(2)
    for _ in range(3):
        shuffled = terms[:]
        rng.shuffle(shuffled)
        assert partition_terms(shuffled, p.relations) == baseline


def test_term_codec():
    t = ("prec", ("succ", 1, 2), 3)
    assert parse_term(serialize_term(t)) == t
    assert term_arity(t) == 3
    with pytest.raises(ParseError):
        parse_term("(prec 1")
    with pytest.raises(ParseError):
        parse_term("(prec one 2)")
    with pytest.raises(ParseError):
        parse_term("(f 1 " * 1200 + "2" + ")" * 1200)


@pytest.mark.parametrize("label", ["1_0", "+2", "\u0663", "-1", "2.0"])
def test_leaf_labels_are_ascii_digits(label):
    with pytest.raises(ParseError) as exc:
        parse_term(f"(f 1 {label})")
    assert exc.value.position == 5
    assert parse_term("(f 1 10)") == ("f", 1, 10)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["(", ")", "_", ".", "x0", "0", "1", "1:0", "f", "junk"]),
                max_size=24))
def test_parse_term_round_trips_or_raises_parse_error(words):
    try:
        t = parse_term(" ".join(words))
    except ParseError:
        return
    assert parse_term(serialize_term(t)) == t


def test_compose_terms_renumbers():
    x = ("f", 1, 2)
    y = ("g", 1, 2)
    assert compose_terms(x, 1, y) == ("f", ("g", 1, 2), 3)
    assert compose_terms(x, 2, y) == ("f", 1, ("g", 2, 3))
    mid = ("f", ("f", 1, 2), 3)
    assert compose_terms(mid, 2, y) == ("f", ("f", 1, ("g", 2, 3)), 4)


def _literal_compose(x, a, y):
    """Partial composition by cutting a hole at leaf ``a`` and filling it."""
    m = term_arity(y)

    def shift_x(t):
        if isinstance(t, int):
            if t == a:
                return None  # marker for the hole
            return t if t < a else t + m - 1
        return (t[0], shift_x(t[1]), shift_x(t[2]))

    def fill(t, spliced):
        if t is None:
            return spliced
        if isinstance(t, int):
            return t
        return (t[0], fill(t[1], spliced), fill(t[2], spliced))

    return fill(shift_x(x), pr._relabel(y, {lbl: lbl + a - 1 for lbl in term_leaves(y)}))


def test_compose_terms_matches_the_literal_route():
    terms = [t for mode in ("planar", "labeled") for n in (1, 2, 3)
             for t in enumerate_terms(Presentation(["f", "g"], mode), n)]
    assert len(terms) == 64
    for x in terms:
        for a in term_leaves(x):
            for y in terms:
                assert compose_terms(x, a, y) == _literal_compose(x, a, y)
    with pytest.raises(ValueError):
        compose_terms(("f", 1, 2), 3, ("g", 1, 2))


def test_colored_compose_matching_and_mismatch():
    x = ColoredTerm(("f", 1, 2), (0, 1), 0)
    y = ColoredTerm(("g", 1, 2), (1, 1), 1)
    got = colored_compose(x, 2, y)
    assert got is not None
    assert got.term == ("f", 1, ("g", 2, 3))
    assert got.input_colors == (0, 1, 1)
    assert got.output_color == 0
    assert colored_compose(x, 1, y) is None  # output color 1 vs input 0
    with pytest.raises(ValueError):
        colored_compose(x, 3, y)


def test_colored_sequential_associativity_on_matching_triples():
    rng = random.Random(5)
    for _ in range(40):
        cx = tuple(rng.randint(0, 1) for _ in range(2))
        x = ColoredTerm(("f", 1, 2), cx, rng.randint(0, 1))
        y = ColoredTerm(("g", 1, 2), (rng.randint(0, 1), rng.randint(0, 1)),
                        cx[0])
        z = ColoredTerm(("h", 1, 2), (rng.randint(0, 1), rng.randint(0, 1)),
                        y.input_colors[1])
        lhs = colored_compose(colored_compose(x, 1, y), 2, z)
        rhs = colored_compose(x, 1, colored_compose(y, 2, z))
        assert lhs == rhs


def test_uniform_colors_reduce_to_plain_composition():
    x = ColoredTerm(("f", 1, 2), (0, 0), 0)
    y = ColoredTerm(("g", 1, 2), (0, 0), 0)
    got = colored_compose(x, 2, y)
    assert got.term == compose_terms(x.term, 2, y.term)


def test_color_change_and_uniformize():
    base = {1: frozenset({"id"}), 2: frozenset({"m1", "m2"})}
    family = uniformize(base, (0, 1))
    assert family.component(2, (0, 1), 1) == frozenset({"m1", "m2"})
    identity = color_change(family, {0: 0, 1: 1}, (0, 1))
    assert identity.components == family.components
    # collapsing all colors of a monochromatic family is uniformization
    mono = uniformize(base, ("*",))
    via_kappa = color_change(mono, {0: "*", 1: "*"}, (0, 1))
    assert via_kappa.components == family.components


def test_forget_counts():
    base = {1: frozenset({"id"}), 2: frozenset({"m1", "m2"}),
            3: frozenset({"t1", "t2", "t3"})}
    w = 2
    family = uniformize(base, tuple(range(w)))
    forgotten = forget(family)
    for n, elems in base.items():
        total = sum(len(e) for _, _, e in forgotten[n])
        assert total == len(elems) * w ** (n + 1)
        assert family.total_at_arity(n) == total


def test_mixing_arity_two_single_generator():
    p = Presentation(["prec"], "planar", [])
    left = ((0, 0), (1, 1))
    for a, b in itertools.product(range(2), repeat=2):
        for out in range(2):
            res = mixing_filter(p, {"prec": left}, 2, (a, b), out)
            assert (len(res.members) == 1) == (out == left[a][b])


def test_mixing_census_duplicial_over_projections():
    p = preset("duplicial")
    tables = pr.omega_algebra_from_structure(p, ds_projections(2))
    census = mixing_census(p, tables, 3)
    assert census["classes"] == 5
    assert all(count == 8 for _, count in census["member_counts"])


def test_mixing_inconsistency_names_a_class():
    p = preset("dendriform")
    bad = OmegaStructure(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    tables = pr.omega_algebra_from_structure(p, bad)
    with pytest.raises(MixingConsistencyError) as exc:
        mixing_filter(p, tables, 3, (0, 0, 0), 0)
    assert exc.value.class_rep.startswith("(")


@pytest.mark.parametrize("mix", [
    lambda p, tables: mixing_filter(p, tables, 2, (0, 1), 0),
    lambda p, tables: mixing_census(p, tables, 2),
])
@pytest.mark.parametrize("tables", [
    {"prec": ((0, 0), (1, 1))},                              # no succ table
    {"prec": ((0, 0), (1, 1)), "succ": ((0,), (1,))},        # not square
    {"prec": ((0, 0), (1, 1)), "succ": ((0, 0, 0),) * 3},    # two sizes
    {"prec": ((0, 0), (1, 1)), "succ": ((0, 2), (0, 1))},    # entry == size
    {"prec": ((0, 0), (1, 1)), "succ": ((0, -1), (0, 1))},   # negative entry
    {"prec": ((0, 0), (1, 1)), "succ": ((0, 1.0), (0, 1))},  # float entry
    {"prec": ((0, 0), (1, "1")), "succ": ((0, 0), (0, 1))},  # string entry
    {"prec": ((0, 0), (1, True)), "succ": ((0, 0), (0, 1))}, # bool entry
    {"prec": 5, "succ": [[0, 0], [0, 0]]},                   # not a table
])
def test_mixing_rejects_malformed_tables(mix, tables):
    with pytest.raises(ValueError):
        mix(preset("duplicial"), tables)


def test_mixing_filter_rejects_out_of_range_colors():
    tables = pr.omega_algebra_from_structure(preset("duplicial"), ds_projections(2))
    for coloring in ((0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            mixing_filter(preset("duplicial"), tables, 2, coloring, 0)
    for output in (2, -1):
        with pytest.raises(ValueError):
            mixing_filter(preset("duplicial"), tables, 2, (0, 1), output)


def test_default_tables_need_matching_structure():
    with pytest.raises(PreconditionError, match="prec"):
        pr.omega_algebra_from_structure(preset("duplicial"),
                                        Magma(2, [[0, 0], [0, 0]]))
    with pytest.raises(PreconditionError, match="mul"):
        pr.omega_algebra_from_structure(preset("associative"), ds_projections(2))


def test_mixing_membership_is_class_invariant_when_consistent():
    p = preset("duplicial")
    tables = pr.omega_algebra_from_structure(p, ds_projections(2))
    classes = quotient_classes(p, 3)
    for coloring in itertools.product(range(2), repeat=3):
        res = mixing_filter(p, tables, 3, coloring, 0)
        member_set = set(map(serialize_term, res.members))
        for cls in classes:
            env = dict(zip(range(1, 4), coloring))
            values = {eval_term(t, tables, env) for t in cls}
            assert len(values) == 1
            assert (serialize_term(cls[0]) in member_set) == (values.pop() == 0)


def test_presentation_json_roundtrip():
    for name in omega.RELATIONS:
        p = preset(name)
        back = Presentation.from_json(p.to_json())
        assert back.generators == p.generators
        assert back.mode == p.mode
        assert back.relations == p.relations
        assert [quotient_classes(back, n) for n in (2, 3)] == \
            [quotient_classes(p, n) for n in (2, 3)]
    back = Presentation.from_json(preset("dendriform").to_json())
    assert [len(quotient_classes(back, n)) for n in (2, 3)] == [2, 3]


_TABLES_2 = [tuple(tuple(cells[i * 2:(i + 1) * 2]) for i in range(2))
             for cells in itertools.product(range(2), repeat=4)]


@pytest.mark.parametrize("name,passing", [
    ("dendriform", 13), ("duplicial", 27), ("associative", 8),
    ("twist", 7), ("napnap", 8), ("prelie", 7),
])
def test_the_presentation_defines_the_parameter_structure(name, passing):
    """A size-2 structure is an algebra for the presentation, every class
    evaluating alike at arity 3, exactly when it satisfies the laws of the
    kind the presentation defines."""
    p = preset(name)
    kind = omega.RELATIONS[name].kind
    if "prec" in p.generators:
        structures = [OmegaStructure(2, l, r) for l in _TABLES_2 for r in _TABLES_2]
    else:
        structures = [Magma(2, t) for t in _TABLES_2]
    found = 0
    for s in structures:
        tables = pr.omega_algebra_from_structure(p, s)
        try:
            consistent = mixing_census(p, tables, 3)["consistent"]
        except MixingConsistencyError:
            consistent = False
        assert consistent == omega.passes(s, kind)
        found += consistent
    assert found == passing


@pytest.mark.parametrize("data", [
    [1], None, "relations",
    {"generators": ["f"], "mode": "planar"},
    {"mode": "planar", "relations": []},
    {"generators": ["f"], "relations": []},
    {"generators": ["f"], "mode": "planar", "relations": 5},
    {"generators": ["f"], "mode": "planar", "relations": ["(f 1 2)"]},
    {"generators": ["f"], "mode": "planar", "relations": [[("f", 1, 2)]]},
    {"generators": 5, "mode": "planar", "relations": []},
    {"generators": ["f"], "mode": "planar", "relations": [["(f 1 2)", "(f 2 1)"]]},
])
def test_malformed_presentation_json_raises_precondition_error(data):
    with pytest.raises(PreconditionError):
        Presentation.from_json(data)


@pytest.mark.parametrize("mode", ["planar", "labeled"])
def test_relation_members_repeating_a_leaf_are_refused(mode):
    with pytest.raises(PreconditionError):
        Presentation(["f", "g"], mode, [[("f", 1, 1), ("g", 1, 1)]])


def test_non_homogeneous_relations_warn():
    plain = Presentation(["f"], "planar", [])
    for cls in ([("f", 1, 2), ("f", ("f", 1, 2), 3)], [("f", ("f", 1, 2), 3), ("f", 1, 2)]):
        with pytest.warns(UserWarning):
            p = Presentation(["f"], "planar", [cls])
        # Members on different leaf sets never join two terms of one arity.
        assert [quotient_classes(p, n) for n in (1, 2, 3)] == \
            [quotient_classes(plain, n) for n in (1, 2, 3)]


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("nonsense")
