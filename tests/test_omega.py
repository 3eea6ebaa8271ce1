"""Parameter structures: law checks, enumeration, symbolic models."""
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famop import omega
from famop.errors import PreconditionError, ResourceBoundError
from famop.omega import (Magma, NatMultiset, OmegaStructure, TwistedMonomial,
                         check_laws, ds_projections, enumerate_structures,
                         from_semigroup, model_product)
from famop.presentations import parse_term

ALL_TABLES_2 = [tuple(tuple(cells[i * 2:(i + 1) * 2]) for i in range(2))
                for cells in itertools.product(range(2), repeat=4)]


# --- the parameter laws as literal tuples ------------------------------------
# ``omega.KIND_LAWS`` is derived from the presented relations; law ids, the
# orientation of each law and the order of laws and kinds all reach
# ``omega check`` output, so the derivation must give exactly these.

_DUP = (
    ("U1", ("la", ("la", 0, 1), 2), ("la", 0, ("la", 1, 2))),
    ("U2", ("la", ("ra", 0, 1), 2), ("ra", 0, ("la", 1, 2))),
    ("U3", ("ra", ("ra", 0, 1), 2), ("ra", 0, ("ra", 1, 2))),
)
KIND_LAWS = {
    "diassociative": (
        ("D1", ("la", ("la", 0, 1), 2), ("la", 0, ("la", 1, 2))),
        ("D2", ("la", 0, ("la", 1, 2)), ("la", 0, ("ra", 1, 2))),
        ("D3", ("la", ("ra", 0, 1), 2), ("ra", 0, ("la", 1, 2))),
        ("D4", ("ra", ("ra", 0, 1), 2), ("ra", ("la", 0, 1), 2)),
        ("D5", ("ra", ("la", 0, 1), 2), ("ra", 0, ("ra", 1, 2))),
    ),
    "duplicial": _DUP,
    "edus": _DUP + (
        ("E0", ("rt", 0, ("la", 1, 2)), ("rt", 0, 1)),
        ("E00", ("lt", ("ra", 0, 1), 2), ("lt", 1, 2)),
        ("E1", ("la", ("lt", 0, 1), ("lt", ("la", 0, 1), 2)), ("lt", 0, ("la", 1, 2))),
        ("E2", ("lt", ("lt", 0, 1), ("lt", ("la", 0, 1), 2)), ("lt", 1, 2)),
        ("E3", ("rt", ("rt", 0, ("ra", 1, 2)), ("rt", 1, 2)), ("rt", 0, 1)),
        ("E4", ("ra", ("rt", 0, ("ra", 1, 2)), ("rt", 1, 2)), ("rt", ("ra", 0, 1), 2)),
    ),
    "associative": (
        ("A1", ("mul", ("mul", 0, 1), 2), ("mul", 0, ("mul", 1, 2))),
    ),
    "twist_associative": (
        ("T1", ("mul", 0, ("mul", 1, 2)), ("mul", ("mul", 1, 0), 2)),
    ),
    "napnapprime": (
        ("N1", ("mul", 0, ("mul", 1, 2)), ("mul", 1, ("mul", 0, 2))),
        ("N2", ("mul", ("mul", 0, 1), 2), ("mul", ("mul", 1, 0), 2)),
    ),
    "perm": (
        ("P1", ("mul", ("mul", 0, 1), 2), ("mul", 0, ("mul", 1, 2))),
        ("P2", ("mul", 0, ("mul", 1, 2)), ("mul", 1, ("mul", 0, 2))),
        ("P3", ("mul", ("mul", 0, 1), 2), ("mul", ("mul", 1, 0), 2)),
    ),
}


def test_derived_kind_laws_are_the_literal_ones():
    assert list(omega.KIND_LAWS.items()) == list(KIND_LAWS.items())


# --- independent oracles: the laws restated as plain lambdas -----------------

def _dia_ok(la, ra):
    r = range(len(la))
    return all(
        la[la[a][b]][c] == la[a][la[b][c]] == la[a][ra[b][c]]
        and la[ra[a][b]][c] == ra[a][la[b][c]]
        and ra[ra[a][b]][c] == ra[la[a][b]][c] == ra[a][ra[b][c]]
        for a in r for b in r for c in r)


def _dup_ok(la, ra):
    r = range(len(la))
    return all(
        la[la[a][b]][c] == la[a][la[b][c]]
        and la[ra[a][b]][c] == ra[a][la[b][c]]
        and ra[ra[a][b]][c] == ra[a][ra[b][c]]
        for a in r for b in r for c in r)


def _edus_ok(la, ra, lt, rt):
    r = range(2)
    return all(
        la[la[a][b]][c] == la[a][la[b][c]]
        and la[ra[a][b]][c] == ra[a][la[b][c]]
        and ra[ra[a][b]][c] == ra[a][ra[b][c]]
        and rt[a][la[b][c]] == rt[a][b]
        and lt[ra[a][b]][c] == lt[b][c]
        and la[lt[a][b]][lt[la[a][b]][c]] == lt[a][la[b][c]]
        and lt[lt[a][b]][lt[la[a][b]][c]] == lt[b][c]
        and rt[rt[a][ra[b][c]]][rt[b][c]] == rt[a][b]
        and ra[rt[a][ra[b][c]]][rt[b][c]] == rt[ra[a][b]][c]
        for a in r for b in r for c in r)


def _brute_pairs(ok):
    return [(l, r) for l in ALL_TABLES_2 for r in ALL_TABLES_2 if ok(l, r)]


def test_ds_projections_tables():
    d = ds_projections(2)
    assert d.left_arrow == ((0, 0), (1, 1))
    assert d.right_arrow == ((0, 1), (0, 1))
    assert check_laws(d, "diassociative").passed
    assert check_laws(ds_projections(1), "diassociative").passed


def test_projections_are_duplicial():
    assert check_laws(ds_projections(3), "diassociative").passed
    assert check_laws(ds_projections(3), "duplicial").passed


def test_singleton_all_zero_passes_everything():
    s = OmegaStructure(1, [[0]], [[0]], [[0]], [[0]])
    m = Magma(1, [[0]])
    for kind in ("diassociative", "duplicial", "edus"):
        assert check_laws(s, kind).passed
    for kind in ("associative", "twist_associative", "napnapprime", "perm"):
        assert check_laws(m, kind).passed


def test_edus_requires_triangles():
    with pytest.raises(PreconditionError):
        check_laws(ds_projections(2), "edus")


def test_kind_argument_type_is_enforced():
    with pytest.raises(PreconditionError):
        check_laws(Magma(2, [[0, 0], [0, 0]]), "duplicial")
    with pytest.raises(PreconditionError):
        check_laws(ds_projections(2), "associative")
    with pytest.raises(PreconditionError):
        check_laws({"size": 2}, "duplicial")


def test_enumeration_matches_brute_force_oracle():
    dia = _brute_pairs(_dia_ok)
    dup = _brute_pairs(_dup_ok)
    got_dia = [(s.left_arrow, s.right_arrow)
               for s in enumerate_structures(2, "diassociative")]
    got_dup = [(s.left_arrow, s.right_arrow)
               for s in enumerate_structures(2, "duplicial")]
    assert got_dia == dia
    assert got_dup == dup
    # pinned regression counts
    assert len(dia) == 13
    assert len(dup) == 27


def test_enumeration_is_lex_ordered_and_exhaustive():
    found = enumerate_structures(2, "associative")
    assert len(found) == 8
    flats = [m.flat() for m in found]
    assert flats == sorted(flats)
    members = {m.table for m in found}
    for table in ALL_TABLES_2:
        ok = check_laws(Magma(2, table), "associative").passed
        assert (table in members) == ok


def test_enumerate_singleton_duplicial():
    assert len(enumerate_structures(1, "duplicial")) == 1


def test_enumerate_size_bound():
    with pytest.raises(ResourceBoundError):
        enumerate_structures(9, "duplicial")


@pytest.mark.parametrize("size", [4, 5])
def test_edus_beyond_size_3_is_refused_at_once(monkeypatch, size):
    monkeypatch.setenv("FAMOP_MAX_SIZE", "5")
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError, match="edus"):
        enumerate_structures(size, "edus", force=True)
    assert time.perf_counter() - start < 1.0


def test_duplicial_not_diassociative_witness_exists():
    dup = enumerate_structures(2, "duplicial")
    strictly = [s for s in dup if not check_laws(s, "diassociative").passed]
    assert strictly, "some duplicial pair must fail the diassociative laws"
    report = check_laws(strictly[0], "diassociative")
    assert not report.passed
    law, args = report.witnesses[0]
    assert law.startswith("D") and len(args) == 3


def test_diassociative_implies_duplicial():
    for s in enumerate_structures(2, "diassociative"):
        assert check_laws(s, "duplicial").passed


def test_from_semigroup():
    add2 = Magma(2, [[0, 1], [1, 0]])
    assert check_laws(from_semigroup(add2), "diassociative").passed
    assert check_laws(from_semigroup(Magma(1, [[0]])), "diassociative").passed
    non_assoc = next(t for t in ALL_TABLES_2
                     if not check_laws(Magma(2, t), "associative").passed)
    report = check_laws(from_semigroup(Magma(2, non_assoc)), "duplicial")
    assert not report.passed and report.witnesses


def test_perm_implies_the_other_magma_kinds():
    perms = enumerate_structures(2, "perm")
    assert perms
    for m in perms:
        for kind in ("associative", "twist_associative", "napnapprime"):
            assert check_laws(m, kind).passed


def test_edus_enumeration_members_pass_and_sample_nonmember_fails():
    found = enumerate_structures(2, "edus")
    assert len(found) == 205  # pinned
    for s in found[::17]:
        assert check_laws(s, "edus").passed
    flats = [s.flat() for s in found]
    assert flats == sorted(flats)
    bad = OmegaStructure(2, [[0, 0], [0, 0]], [[0, 0], [0, 0]],
                         [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    assert bad.flat() not in set(flats)
    assert not check_laws(bad, "edus").passed


def test_edus_passes_fast_path_agrees_with_check_laws():
    rng = random.Random(7)
    edus = [(s.left_arrow, s.right_arrow, s.left_tri, s.right_tri)
            for s in enumerate_structures(2, "edus")]
    samples = edus + [tuple(rng.choice(ALL_TABLES_2) for _ in range(4))
                      for _ in range(400)]
    for quad in samples:
        expected = _edus_ok(*quad)
        assert omega.edus_passes(*quad, 2) == expected
        assert check_laws(OmegaStructure(2, *quad), "edus").passed == expected
    assert all(_edus_ok(*quad) for quad in edus)
    assert not all(_edus_ok(*quad) for quad in samples)


def test_witnesses_are_exhaustive():
    left = ((0, 1), (1, 0))
    s = OmegaStructure(2, left, left)
    report = check_laws(s, "duplicial")
    expected = []
    for args in itertools.product(range(2), repeat=3):
        a, b, c = args
        if left[left[a][b]][c] != left[a][left[b][c]]:
            expected.append(("U1", args))
        if left[left[a][b]][c] != left[a][left[b][c]]:
            expected.append(("U2", args))
        if left[left[a][b]][c] != left[a][left[b][c]]:
            expected.append(("U3", args))
    assert report.witnesses == expected


@pytest.mark.parametrize("kind,count", [
    ("diassociative", 267), ("duplicial", 1401), ("associative", 113),
    ("twist_associative", 91), ("napnapprime", 177), ("perm", 85),
])
def test_size3_counts_and_lex_order(kind, count):
    found = enumerate_structures(3, kind)
    assert len(found) == count
    flats = [s.flat() for s in found]
    assert flats == sorted(set(flats))
    assert all(check_laws(s, kind).passed for s in found)


@pytest.mark.parametrize("kind", sorted(omega.KIND_LAWS))
def test_enumerated_structures_equal_validated_constructions(kind):
    # the search builds its output unvalidated; the public constructors
    # must accept every table and build the same objects
    for size in (1, 2, 3):
        for s in enumerate_structures(size, kind):
            if isinstance(s, Magma):
                checked = Magma(s.size, [list(row) for row in s.table])
            else:
                checked = OmegaStructure(s.size, *([list(row) for row in t] if t else t
                                                   for t in (s.left_arrow, s.right_arrow,
                                                             s.left_tri, s.right_tri)))
            assert s == checked and hash(s) == hash(checked)
            assert vars(s) == vars(checked)


# --- the row-factored arrow join against a literal pair scan ----------------

def _assoc_ok(t):
    r = range(len(t))
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r)


def _u2_ok(la, ra):
    r = range(len(la))
    return all(la[ra[a][b]][c] == ra[a][la[b][c]] for a in r for b in r for c in r)


ALL_TABLES_3 = [tuple(tuple(cells[i * 3:(i + 1) * 3]) for i in range(3))
                for cells in itertools.product(range(3), repeat=9)]
ASSOC_3 = [t for t in ALL_TABLES_3 if _assoc_ok(t)]


def test_size3_arrow_kinds_match_the_literal_pair_scan():
    assert len(ASSOC_3) == 113
    assert [m.table for m in enumerate_structures(3, "associative")] == ASSOC_3
    for kind, ok in (("diassociative", _dia_ok), ("duplicial", _dup_ok)):
        expected = [(l, r) for l in ASSOC_3 for r in ASSOC_3 if ok(l, r)]
        got = [(s.left_arrow, s.right_arrow) for s in enumerate_structures(3, kind)]
        assert got == expected


def test_row_local_marks_exactly_the_one_row_laws():
    marked = [law[0] for law in KIND_LAWS["diassociative"] + KIND_LAWS["duplicial"]
              if omega._row_local(law[1], "ra", 0) and omega._row_local(law[2], "ra", 0)]
    assert marked == ["D3", "U2"]


def test_the_search_plans_are_read_off_the_kind_laws(monkeypatch):
    assert omega.MAGMA_KINDS == ("associative", "twist_associative", "napnapprime", "perm")
    arrow_pairs, search_single = omega._arrow_pairs, omega._search_single
    seen: dict = {}  # search -> the laws it was given, each time

    def join(size, laws):
        seen.setdefault("join", set()).add(laws)
        return arrow_pairs(size, laws)

    def single(size, laws, op, context=None):
        seen.setdefault(op, set()).add(laws)
        return search_single(size, laws, op, context)

    monkeypatch.setattr(omega, "_arrow_pairs", join)
    monkeypatch.setattr(omega, "_search_single", single)
    plans = {}
    for kind, count in (("diassociative", 13), ("duplicial", 27), ("edus", 205)):
        seen.clear()
        assert len(enumerate_structures(2, kind)) == count
        assert all(len(laws) == 1 for laws in seen.values())  # one plan per search
        plans[kind] = [next(iter(seen[op])) for op in ("join", "lt", "rt") if op in seen]
    ids = {kind: [[law[0] for law in laws] for laws in plan] for kind, plan in plans.items()}
    assert ids == {"diassociative": [["D2", "D3", "D4", "D5"]], "duplicial": [["U2"]],
                   "edus": [["U2"], ["E00", "E1", "E2"], ["E0", "E3", "E4"]]}
    for kind, plan in plans.items():
        assert all(law in KIND_LAWS[kind] for laws in plan for law in laws)
        # The join draws both arrows from ``_assoc_tables``: every arrow law it
        # leaves out must be the associativity of one arrow.
        for law in KIND_LAWS[kind]:
            if omega.law_tables(law) <= {"la", "ra"} and law not in plan[0]:
                (op,) = omega.law_tables(law)
                assert {law[1], law[2]} == {(op, (op, 0, 1), 2), (op, 0, (op, 1, 2))}
    assert not any({"lt", "rt"} <= omega.law_tables(law)
                   for laws in KIND_LAWS.values() for law in laws)


_tables_3 = st.one_of(
    st.sampled_from(ASSOC_3),
    st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=3, max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(_tables_3, _tables_3)
def test_u2_reads_one_row_of_the_right_arrow(la, ra):
    assert _u2_ok(la, ra) == all(_u2_ok(la, (row,) * 3) for row in ra)


@pytest.mark.slow
@pytest.mark.parametrize("kind,count", [("duplicial", 201501), ("diassociative", 15277)])
def test_size4_arrow_counts(kind, count):
    found = enumerate_structures(4, kind, force=True)
    assert len(found) == count
    flats = [s.flat() for s in found]
    assert flats == sorted(set(flats))
    for s in random.Random(4).sample(found, 200):
        assert check_laws(s, kind).passed


def _arrow_laws(kind):
    return tuple(law for law in KIND_LAWS[kind] if omega.law_tables(law) == {"la", "ra"})


def _per_left_join(size, laws):
    """The row-factored join run on every left arrow, with no orbits."""
    assoc = omega._assoc_tables(size)
    local = tuple(law for law in laws
                  if omega._row_local(law[1], "ra", 0) and omega._row_local(law[2], "ra", 0))
    rest = tuple(law for law in laws if law not in local)
    local_check = omega.compile_laws(local)[1]
    rest_check = omega.compile_laws(rest)[1] if rest else None
    by_first: dict = {}
    for table in assoc:
        by_first.setdefault(table[0], []).append(table)
    rows = list(itertools.product(range(size), repeat=size))
    pairs = []
    for left in assoc:
        passing = [r for r in rows if local_check(None, size, left, (r,) * size) is None]
        ok = set(passing)
        for r in passing:
            for right in by_first.get(r, ()):
                if (ok.issuperset(right) and
                        (rest_check is None or rest_check(None, size, left, right) is None)):
                    pairs.append((left, right))
    return pairs


@pytest.mark.parametrize("kind,count", [("duplicial", 201501), ("diassociative", 15277)])
def test_size4_orbit_join_matches_the_per_left_join(kind, count):
    expected = _per_left_join(4, _arrow_laws(kind))
    assert len(expected) == count
    assert omega._arrow_pairs(4, _arrow_laws(kind)) == expected


# --- relabelling the carrier -------------------------------------------------
# The laws have no constants, so a permutation of the carrier maps the models
# of a law set onto its models; the orbit walk of the enumeration relies on it.

def _relabelled(table, sigma):
    """The table ``t`` with ``t[sigma[a]][sigma[b]] = sigma[table[a][b]]``."""
    n = len(table)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return tuple(map(tuple, out))


_MEMBERS: dict = {}


def _members(size, kind):
    if (size, kind) not in _MEMBERS:
        _MEMBERS[size, kind] = enumerate_structures(size, kind)
    return _MEMBERS[size, kind]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2 ** 32))
def test_law_verdicts_are_invariant_under_relabelling(size, seed):
    rng = random.Random(seed)
    for kind in KIND_LAWS:
        # Half members, some with one cell moved; half random tables.
        if rng.random() < 0.5:
            tables = [list(map(list, t)) for t in _table_fields(rng.choice(_members(size, kind)))]
            if rng.random() < 0.5:
                table = rng.choice(tables)
                table[rng.randrange(size)][rng.randrange(size)] = rng.randrange(size)
        else:
            count = {"edus": 4, "diassociative": 2, "duplicial": 2}.get(kind, 1)
            tables = [[[rng.randrange(size) for _ in range(size)] for _ in range(size)]
                      for _ in range(count)]
        s = _structure(size, tables)
        verdict = check_laws(s, kind).passed
        for sigma in itertools.permutations(range(size)):
            moved = [_relabelled(t, sigma) for t in tables]
            assert [omega._relabel(tuple(map(tuple, t)), sigma) for t in tables] == moved
            assert check_laws(_structure(size, moved), kind).passed == verdict


def _table_fields(s):
    if isinstance(s, Magma):
        return [s.table]
    return [t for t in (s.left_arrow, s.right_arrow, s.left_tri, s.right_tri) if t is not None]


def _structure(size, tables):
    return Magma(size, *tables) if len(tables) == 1 else OmegaStructure(size, *tables)


@pytest.mark.parametrize("kind", sorted(KIND_LAWS))
def test_enumerations_are_closed_under_relabelling(kind):
    for size in (2, 3):
        found = {tuple(_table_fields(s)) for s in _members(size, kind)}
        # The adjacent transpositions generate every permutation.
        for k in range(size - 1):
            swap = (*range(k), k + 1, k, *range(k + 2, size))
            assert all(tuple(omega._relabel(t, swap) for t in s) in found for s in found)


def test_the_edus_orbit_walk_matches_the_per_pair_search():
    laws = KIND_LAWS["edus"]
    lt_laws, rt_laws = (tuple(law for law in laws if op in omega.law_tables(law))
                        for op in ("lt", "rt"))
    pairs = [(s.left_arrow, s.right_arrow) for s in _members(3, "duplicial")]
    assert len(pairs) == 1401
    expected = []
    for left, right in pairs:
        arrows = {"la": left, "ra": right}
        lts = omega._search_single(3, lt_laws, "lt", arrows)
        rts = omega._search_single(3, rt_laws, "rt", arrows) if lts else []
        expected += [(left, right, lt, rt) for lt in lts for rt in rts]
    assert [tuple(_table_fields(s)) for s in _members(3, "edus")] == expected
    assert len(expected) == 63141


# --- the law compiler against the interpreter -------------------------------

def _terms(k):
    return st.recursive(
        st.integers(0, k - 1),
        lambda sub: st.tuples(st.sampled_from(["f", "g"]), sub, sub),
        max_leaves=6)


@st.composite
def _law_sets(draw):
    k = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(_terms(k), _terms(k)), min_size=1, max_size=4))
    laws = tuple((f"L{i}", lhs, rhs) for i, (lhs, rhs) in enumerate(pairs))
    cells = st.lists(st.lists(st.integers(0, size - 1), min_size=size,
                              max_size=size), min_size=size, max_size=size)
    tables = {"f": draw(cells), "g": draw(cells)}
    unknown = {op: draw(st.sets(st.tuples(st.integers(0, size - 1),
                                          st.integers(0, size - 1))))
               for op in tables}
    return laws, size, tables, unknown


def _reference(laws, size, evaluate):
    k = 1 + max(max(_vars(lhs) + _vars(rhs)) for _, lhs, rhs in laws)
    out = []
    for args in itertools.product(range(size), repeat=k):
        for i, (_, lhs, rhs) in enumerate(laws):
            a, b = evaluate(lhs, args), evaluate(rhs, args)
            if a is not None and b is not None and a != b:
                out.append((i, args))
    return out


def _vars(term):
    if isinstance(term, int):
        return [term]
    return _vars(term[1]) + _vars(term[2])


def _compiled(laws, size, tables):
    ops, check = omega.compile_laws(laws)
    args = [tables[op] for op in ops]
    out = []
    assert check(out, size, *args) is None
    assert check(None, size, *args) == (out[0] if out else None)
    return out


@settings(max_examples=300, deadline=None)
@given(_law_sets())
def test_compiled_laws_agree_with_the_interpreter(case):
    laws, size, tables, _ = case
    expected = _reference(laws, size,
                          lambda t, args: omega.eval_term(t, tables, args))
    assert _compiled(laws, size, tables) == expected


@settings(max_examples=300, deadline=None)
@given(_law_sets())
def test_compiled_laws_on_partial_tables(case):
    laws, size, tables, unknown = case
    partial = {op: [[None if (i, j) in unknown[op] else v
                     for j, v in enumerate(row)] for i, row in enumerate(t)]
               for op, t in tables.items()}

    def evaluate(term, args):
        if isinstance(term, int):
            return args[term]
        a, b = evaluate(term[1], args), evaluate(term[2], args)
        return None if a is None or b is None else partial[term[0]][a][b]

    padded = {op: [[size if v is None else v for v in row] + [size] for row in t]
              + [[size] * (size + 1)] for op, t in partial.items()}
    assert _compiled(laws, size, padded) == _reference(laws, size, evaluate)


def test_an_empty_law_set_compiles_to_a_check_that_reports_nothing():
    ops, check = omega.compile_laws(())
    found: list = []
    assert ops == () and check(None, 3) is None and check(found, 3) is None and found == []
    assert omega.first_violation((), {}, 2) is None
    with pytest.raises(ValueError, match="variable -1 is negative"):
        omega.compile_laws((("L", ("f", 0, -1), 0),))


# --- the one substitution of terms --------------------------------------------

_TERMS = st.recursive(st.integers(1, 4), lambda sub: st.tuples(st.sampled_from(["f", "g"]),
                                                                 sub, sub), max_leaves=6)


def _substitute_by_text(term, leaves, ops):
    """The substitution through the term's text: each leaf word is replaced by
    the text of its image and each generator word renamed."""
    words = omega.serialize_term(term).replace("(", "( ").replace(")", " )").split()
    return parse_term(" ".join(
        w if w in ("(", ")") else omega.serialize_term(leaves[int(w)]) if w.isdigit()
        else (ops or {}).get(w, w) for w in words))


@settings(max_examples=300, deadline=None)
@given(_TERMS, st.fixed_dictionaries({v: st.integers(1, 9) | _TERMS for v in range(1, 5)}),
       st.none() | st.fixed_dictionaries({g: st.sampled_from(["la", "ra", "mul"])
                                          for g in ("f", "g")}))
def test_substitute_is_the_relabelling_of_the_term_text(term, leaves, ops):
    assert omega.substitute(term, leaves, ops) == _substitute_by_text(term, leaves, ops)
    assert omega.substitute(term, {v: v for v in range(1, 5)}) == term


# --- symbolic models ---------------------------------------------------------

def test_twisted_monomial_generator_product():
    x = TwistedMonomial("d", "d2")
    y = TwistedMonomial("e", "e2")
    assert model_product("twisted_monomials", x, y) == \
        TwistedMonomial("d2", "e2", {"d": 1, "e": 1})


def test_twisted_monomials_twist_identity_on_samples():
    rng = random.Random(11)
    alphabet = "pqr"

    def sample():
        return TwistedMonomial(rng.choice(alphabet), rng.choice(alphabet),
                               {d: rng.randint(0, 2) for d in alphabet})

    for _ in range(200):
        x, y, z = sample(), sample(), sample()
        lhs = model_product("twisted_monomials", x,
                            model_product("twisted_monomials", y, z))
        rhs = model_product("twisted_monomials",
                            model_product("twisted_monomials", y, x), z)
        assert lhs == rhs


def test_multiset_product_pins():
    assert model_product("nat_multisets", NatMultiset((2,)), NatMultiset((3,))) \
        == NatMultiset((3, 3))
    assert model_product("nat_multisets", NatMultiset(), NatMultiset()) \
        == NatMultiset((1,))


def test_multisets_nap_identities_on_samples():
    rng = random.Random(13)

    def sample():
        return NatMultiset(tuple(rng.randint(1, 5)
                                 for _ in range(rng.randint(0, 4))))

    mul = lambda a, b: model_product("nat_multisets", a, b)
    for _ in range(200):
        x, y, z = sample(), sample(), sample()
        assert mul(x, mul(y, z)) == mul(y, mul(x, z))
        assert mul(mul(x, y), z) == mul(mul(y, x), z)


def test_model_product_rejects_mixed_models():
    with pytest.raises(TypeError):
        model_product("twisted_monomials", TwistedMonomial("a", "a"), NatMultiset())
    with pytest.raises(ValueError):
        model_product("nonsense", NatMultiset(), NatMultiset())


def test_structure_json_roundtrip():
    for s in enumerate_structures(2, "edus")[:5]:
        assert OmegaStructure.from_json(s.to_json()) == s
    d = ds_projections(3)
    assert OmegaStructure.from_json(d.to_json()) == d
    m = Magma(2, [[0, 1], [1, 0]])
    assert Magma.from_json(m.to_json()) == m


_ZERO = [[0, 0], [0, 0]]


@pytest.mark.parametrize("cls,data", [
    (OmegaStructure, [1, 2]), (OmegaStructure, "left"), (OmegaStructure, None),
    (OmegaStructure, {"size": 2}), (OmegaStructure, {"size": 2, "left": _ZERO}),
    (OmegaStructure, {"left": _ZERO, "right": _ZERO}),
    (OmegaStructure, {"size": 2.0, "left": _ZERO, "right": _ZERO}),
    (OmegaStructure, {"size": True, "left": [[0]], "right": [[0]]}),
    (OmegaStructure, {"size": "2", "left": _ZERO, "right": _ZERO}),
    (Magma, [1, 2]), (Magma, "table"), (Magma, 2),
    (Magma, {"size": 2}), (Magma, {"table": _ZERO}),
    (Magma, {"size": 2.0, "table": _ZERO}), (Magma, {"size": True, "table": [[0]]}),
    (OmegaStructure, {"size": 2, "left": 5, "right": _ZERO}),
    (OmegaStructure, {"size": 2, "left": _ZERO, "right": _ZERO, "ltri": 5, "rtri": _ZERO}),
    (Magma, {"size": 2, "table": [1, 2]}),
])
def test_malformed_structure_json_raises_precondition_error(cls, data):
    with pytest.raises((PreconditionError, ValueError)):
        cls.from_json(data)


def test_table_validation():
    with pytest.raises(ValueError):
        OmegaStructure(2, [[0, 2], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        OmegaStructure(2, [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], None)


@pytest.mark.parametrize("entry", [1.9, 1.0, "1", True, None])
def test_table_entries_must_be_integers(entry):
    rows = [[0, entry], [0, 0]]
    zero = [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match="not an integer"):
        OmegaStructure(2, rows, zero)
    with pytest.raises(ValueError, match="not an integer"):
        OmegaStructure(2, zero, zero, zero, rows)
    with pytest.raises(ValueError, match="not an integer"):
        Magma(2, rows)
