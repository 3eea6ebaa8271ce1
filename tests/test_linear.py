"""Family algebras by structure constants: laws, grading, equivalence."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famop import linear, omega
from famop.errors import PreconditionError
from famop.linear import (FamilyBilinear, GradedBasisAlgebra, check_classic_laws,
                          check_family_laws, color_support_ok,
                          constant_family, make_graded,
                          prelie_rooted_truncated, random_family, zero_family,
                          zinbiel_truncated)
from famop.omega import Magma, OmegaStructure, ds_projections, from_semigroup

PROJ2 = ds_projections(2)
PERM2 = Magma(2, [[0, 0], [0, 0]])
ALL_TABLES_2 = [tuple(tuple(cells[i * 2:(i + 1) * 2]) for i in range(2))
                for cells in itertools.product(range(2), repeat=4)]


def _one_dim(value_prec, value_succ, w=1):
    return constant_family(1, w, {"prec": [[[Fraction(value_prec)]]],
                                  "succ": [[[Fraction(value_succ)]]]})


def test_zero_family_passes_every_kind():
    for kind, structure, ops in [("dendriform2", PROJ2, ("prec", "succ")),
                                 ("prelie2", PERM2, ("rhd",)),
                                 ("assoc_family", PERM2, ("mul",)),
                                 ("twisted_family", PERM2, ("mul",)),
                                 ("napnap_family", PERM2, ("mul",))]:
        a = zero_family(2, 2, ops)
        assert check_family_laws(a, structure, kind).passed


def test_associative_prec_with_zero_succ_is_dendriform_for_any_omega():
    # one generator, prec = truncated polynomial product, succ = 0
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][1] = Fraction(1)  # e1 * e1 = e2, all else truncates
    a = constant_family(2, 2, {"prec": cube,
                               "succ": [[[Fraction(0)] * 2] * 2] * 2})
    assert check_family_laws(a, PROJ2, "dendriform2").passed


def test_one_dim_idempotent_is_associative_but_not_dendriform():
    table = [[[Fraction(1)]]]
    a = constant_family(1, 1, {"mul": table})
    assert check_classic_laws(a, "associative").passed
    b = constant_family(1, 1, {"prec": table, "succ": table})
    report = check_classic_laws(b, "dendriform")
    assert not report.passed  # a*a*a cannot equal twice itself


def test_one_dim_prelie2_over_perm_magma():
    a = constant_family(1, 2, {"rhd": [[[Fraction(1)]]]})
    assert check_family_laws(a, PERM2, "prelie2").passed


def test_precondition_error_names_failed_identity():
    non_dia = OmegaStructure(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    a = zero_family(1, 2, ("prec", "succ"))
    with pytest.raises(PreconditionError) as exc:
        check_family_laws(a, non_dia, "dendriform2")
    assert "identity" in str(exc.value)


def test_zinbiel_truncation_is_classically_dendriform():
    z = zinbiel_truncated(3, 1)
    assert check_classic_laws(z, "dendriform").passed
    # both products and a triple product are nonzero
    e1 = z.basis(0)
    p = z.product("prec", (0, 0), e1, e1)
    s = z.product("succ", (0, 0), e1, e1)
    assert any(p) and any(s)
    assert any(z.product("prec", (0, 0), e1, p))


def test_rooted_tree_truncation_is_classically_prelie():
    p = prelie_rooted_truncated(4, 1)
    assert p.dim == 8
    assert check_classic_laws(p, "prelie").passed
    # not associative: witnesses distinguish the bracketings
    as_mul = FamilyBilinear(p.dim, 1, {"mul": p.ops["rhd"]})
    assert not check_classic_laws(as_mul, "associative").passed


def test_constant_families_pass_family_laws_over_valid_structures():
    z = zinbiel_truncated(3, 2)
    assert check_family_laws(z, PROJ2, "dendriform2").passed
    p = prelie_rooted_truncated(3, 2)
    assert check_family_laws(p, PERM2, "prelie2").passed


def test_graded_dimensions_and_color_support():
    z = zinbiel_truncated(3, 2)
    g = make_graded(z, PROJ2, "dendriform")
    assert g.dim == 6
    assert color_support_ok(g)
    r = random_family(2, 2, ("rhd",), seed=5)
    gr = make_graded(r, PERM2, "prelie")
    assert gr.dim == 4
    assert color_support_ok(gr)


def test_graded_constants_are_exact_rationals():
    # float constants are read exactly, as Fraction does; non-numbers raise
    g = GradedBasisAlgebra(1, 1, {"mul": [[[0.5]]]}, {"mul": ((0,),)})
    assert g.ops["mul"] == (((Fraction(1, 2),),),)
    assert check_classic_laws(g, "associative").passed
    with pytest.raises(ValueError):
        GradedBasisAlgebra(1, 1, {"mul": [[["x"]]]}, {"mul": ((0,),)})


def test_graded_with_one_color_is_the_family_itself():
    z = zinbiel_truncated(3, 1)
    g = make_graded(z, ds_projections(1), "dendriform")
    assert g.ops["prec"] == z.ops["prec"][(0, 0)]
    assert g.ops["succ"] == z.ops["succ"][(0, 0)]


def test_dendriform_equivalence_over_all_two_element_arrow_pairs():
    z = zinbiel_truncated(3, 2)
    for la in ALL_TABLES_2:
        for ra in ALL_TABLES_2:
            structure = OmegaStructure(2, la, ra)
            graded_ok = check_classic_laws(
                make_graded(z, structure, "dendriform"), "dendriform").passed
            assert graded_ok == omega.passes(structure, "diassociative")


def test_prelie_equivalence_over_all_two_element_magmas():
    p = prelie_rooted_truncated(4, 2)
    for table in ALL_TABLES_2:
        m = Magma(2, table)
        graded_ok = check_classic_laws(
            make_graded(p, m, "prelie"), "prelie").passed
        assert graded_ok == omega.passes(m, "perm")


def test_duplicial_grading_detects_arrow_failures_too():
    # prec = truncated polynomial product, succ = its opposite: a duplicial
    # algebra with nonzero triple products
    dim = 3
    z = Fraction(0)
    prec = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    succ = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if i + j + 1 < dim:
                prec[i][j][i + j + 1] = Fraction(1)
                succ[j][i][i + j + 1] = Fraction(1)
    a = constant_family(dim, 2, {"prec": prec, "succ": succ})
    assert check_classic_laws(
        make_graded(a, PROJ2, "duplicial"), "duplicial").passed
    bad = OmegaStructure(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    assert not check_classic_laws(
        make_graded(a, bad, "duplicial"), "duplicial").passed


def test_case_decomposition_for_perm_structures():
    # associative family laws force both defects of the pre-Lie family law
    # to vanish separately
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][1] = Fraction(1)
    a = constant_family(2, 2, {"mul": cube})
    assert check_family_laws(a, PERM2, "assoc_family").passed
    b = FamilyBilinear(2, 2, {"rhd": a.ops["mul"]})
    assert check_family_laws(b, PERM2, "prelie2").passed
    la = PERM2.mul
    for i, j, k in itertools.product(range(2), repeat=3):
        x, y, z = (b.basis(v) for v in (i, j, k))
        for al, be, ga in itertools.product(range(2), repeat=3):
            left = b.product("rhd", (al, la(be, ga)), x,
                             b.product("rhd", (be, ga), y, z))
            right = b.product("rhd", (la(al, be), ga),
                              b.product("rhd", (al, be), x, y), z)
            assert left == right


def test_case_laws_imply_the_prelie_family_law_formally():
    # impose the case-2 and case-3 shapes on free monomial values and watch
    # the family pre-Lie law become an arithmetic identity
    import random
    rng = random.Random(3)

    def vec():
        return tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))

    for _ in range(50):
        c1, c3 = vec(), vec()
        # twisted shape: c4 = -c1 and c2 = -c3
        c4 = tuple(-v for v in c1)
        c2 = tuple(-v for v in c3)
        lhs = tuple(a - b for a, b in zip(c1, c2))
        rhs = tuple(a - b for a, b in zip(c3, c4))
        assert lhs == rhs
        # nap shape: c3 = c1 and c4 = c2
        c3b, c4b = c1, c2
        lhs = tuple(a - b for a, b in zip(c1, c2))
        rhs = tuple(a - b for a, b in zip(c3b, c4b))
        assert lhs == rhs


def test_twisted_and_napnap_families_on_nilpotent_instances():
    cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    cube[0][0][1] = Fraction(1)
    a = constant_family(2, 2, {"mul": cube})
    b = FamilyBilinear(2, 2, {"rhd": a.ops["mul"]})
    for m in omega.enumerate_structures(2, "twist_associative"):
        assert check_family_laws(a, m, "twisted_family").passed
        if omega.passes(m, "perm"):
            assert check_family_laws(b, m, "prelie2").passed
    for m in omega.enumerate_structures(2, "napnapprime"):
        assert check_family_laws(a, m, "napnap_family").passed


def test_json_roundtrip_with_fraction_strings():
    a = random_family(2, 2, ("prec", "succ"), seed=9)
    data = a.to_json()
    entries = [v for by in data["ops"].values() for cube in by.values()
               for plane in cube for row in plane for v in row]
    assert all(isinstance(v, str) for v in entries)
    assert any("/" in v for v in entries)  # seed 9 produces proper fractions
    b = FamilyBilinear.from_json(data)
    assert b.ops == a.ops and b.dim == a.dim


_FAMILY = {"dim": 1, "omega_size": 1, "ops": {"prec": {"(0,0)": [[["1/2"]]]}}}


@pytest.mark.parametrize("data,error", [
    (None, PreconditionError), (5, PreconditionError), ([], PreconditionError),
    ({"dim": 1}, PreconditionError), ({**_FAMILY, "ops": 5}, PreconditionError),
    ({**_FAMILY, "ops": {"prec": [1]}}, PreconditionError),
    ({**_FAMILY, "dim": "1"}, PreconditionError),
    ({**_FAMILY, "omega_size": 1.0}, PreconditionError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": 5}}}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[[None]]]}}}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[[[1]]]]}}}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[["x"]]]}}}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[[float("inf")]]]}}}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"zz": [[[1]]]}}}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"(0,1)": [[[1]]]}}}, ValueError),
    ({**_FAMILY, "dim": 2}, ValueError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[["x"]]]}}}, PreconditionError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[[float("nan")]]]}}}, PreconditionError),
    ({**_FAMILY, "ops": {"prec": {"(0,0)": [[["1/0"]]]}}}, PreconditionError),
])
def test_malformed_family_json_raises_a_typed_error(data, error):
    with pytest.raises(error):
        FamilyBilinear.from_json(data)
    assert FamilyBilinear.from_json(_FAMILY).ops["prec"][0, 0] == (((Fraction(1, 2),),),)


@pytest.mark.parametrize("key", ["(+1,0)", "1,0", "((1,0))", "( 1,0)", "(1,0 )", "(\u0663,0)",
                                 "(1_0,0)", "(0,1,2)", "(0)", "()", "(,0)", "(0,0"])
def test_family_keys_are_pairs_of_ascii_digits(key):
    with pytest.raises(PreconditionError, match="parameter key"):
        FamilyBilinear.from_json({**_FAMILY, "omega_size": 2, "ops": {"prec": {key: [[[1]]]}}})


def test_family_json_keys_round_trip():
    a = random_family(1, 3, ("prec", "succ"), seed=4)
    data = a.to_json()
    assert sorted(data["ops"]["prec"]) == [f"({p},{q})" for p in range(3) for q in range(3)]
    b = FamilyBilinear.from_json(data)
    assert (b.ops, b.dim, b.omega_size) == (a.ops, a.dim, a.omega_size)
    assert b.to_json() == data


def test_family_validation():
    with pytest.raises(ValueError):
        FamilyBilinear(1, 2, {"prec": {(0, 0): [[[Fraction(0)]]]}})
    with pytest.raises(ValueError):
        check_family_laws(zero_family(1, 2, ("prec", "succ")), PROJ2, "nonsense")
    with pytest.raises(ValueError):
        check_family_laws(zero_family(1, 3, ("prec", "succ")), PROJ2, "dendriform2")


# ---------------------------------------------------------------------------
# A literal restatement of every law through the products, independent of
# the law table: the checkers must report exactly these witnesses.


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _family_instances(kind, m, la, ra, x, y, z, al, be, ga):
    """(law id, lhs, rhs) for one basis and parameter triple; ``m(op, p, q,
    u, v)`` is the product of u and v at the parameter pair (p, q)."""
    if kind == "dendriform2":
        return [
            ("F1", m("prec", la(al, be), ga, m("prec", al, be, x, y), z),
             _vadd(m("prec", al, la(be, ga), x, m("prec", be, ga, y, z)),
                   m("prec", al, ra(be, ga), x, m("succ", be, ga, y, z)))),
            ("F2", m("prec", ra(al, be), ga, m("succ", al, be, x, y), z),
             m("succ", al, la(be, ga), x, m("prec", be, ga, y, z))),
            ("F3", m("succ", al, ra(be, ga), x, m("succ", be, ga, y, z)),
             _vadd(m("succ", ra(al, be), ga, m("succ", al, be, x, y), z),
                   m("succ", la(al, be), ga, m("prec", al, be, x, y), z))),
        ]
    if kind == "prelie2":
        return [("PL",
                 _vsub(m("rhd", al, la(be, ga), x, m("rhd", be, ga, y, z)),
                       m("rhd", la(al, be), ga, m("rhd", al, be, x, y), z)),
                 _vsub(m("rhd", be, la(al, ga), y, m("rhd", al, ga, x, z)),
                       m("rhd", la(be, al), ga, m("rhd", be, al, y, x), z)))]
    if kind == "assoc_family":
        return [("FA", m("mul", al, la(be, ga), x, m("mul", be, ga, y, z)),
                 m("mul", la(al, be), ga, m("mul", al, be, x, y), z))]
    if kind == "twisted_family":
        return [("FT", m("mul", al, la(be, ga), x, m("mul", be, ga, y, z)),
                 tuple(-c for c in m("mul", la(be, al), ga,
                                     m("mul", be, al, y, x), z)))]
    assert kind == "napnap_family"
    return [
        ("FN1", m("mul", al, la(be, ga), x, m("mul", be, ga, y, z)),
         m("mul", be, la(al, ga), y, m("mul", al, ga, x, z))),
        ("FN2", m("mul", la(al, be), ga, m("mul", al, be, x, y), z),
         m("mul", la(be, al), ga, m("mul", be, al, y, x), z)),
    ]


def _classic_instances(kind, m, x, y, z):
    """(law id, lhs, rhs) for one basis triple; ``m(op, u, v)`` multiplies."""
    if kind == "associative":
        return [("assoc", m("mul", m("mul", x, y), z), m("mul", x, m("mul", y, z)))]
    if kind == "prelie":
        return [("prelie",
                 _vsub(m("rhd", x, m("rhd", y, z)), m("rhd", m("rhd", x, y), z)),
                 _vsub(m("rhd", y, m("rhd", x, z)), m("rhd", m("rhd", y, x), z)))]
    if kind == "dendriform":
        return [
            ("C1", m("prec", m("prec", x, y), z),
             _vadd(m("prec", x, m("prec", y, z)), m("prec", x, m("succ", y, z)))),
            ("C2", m("prec", m("succ", x, y), z), m("succ", x, m("prec", y, z))),
            ("C3", m("succ", x, m("succ", y, z)),
             _vadd(m("succ", m("succ", x, y), z), m("succ", m("prec", x, y), z))),
        ]
    assert kind == "duplicial"
    return [
        ("C1", m("prec", m("prec", x, y), z), m("prec", x, m("prec", y, z))),
        ("C2", m("prec", m("succ", x, y), z), m("succ", x, m("prec", y, z))),
        ("C3", m("succ", x, m("succ", y, z)), m("succ", m("succ", x, y), z)),
    ]


def _reference_family(a, s, kind):
    la, ra = (s.la, s.ra) if isinstance(s, OmegaStructure) else (s.mul, s.mul)

    def m(op, p, q, u, v):
        return a.product(op, (p, q), u, v)

    witnesses, instances = [], 0
    for i, j, k in itertools.product(range(a.dim), repeat=3):
        x, y, z = a.basis(i), a.basis(j), a.basis(k)
        for al, be, ga in itertools.product(range(a.omega_size), repeat=3):
            for law, lhs, rhs in _family_instances(kind, m, la, ra, x, y, z,
                                                   al, be, ga):
                instances += 1
                if lhs != rhs:
                    witnesses.append((law, (i, j, k, al, be, ga)))
    return witnesses, instances


def _reference_classic(b, kind):
    if isinstance(b, FamilyBilinear):
        def m(op, u, v):
            return b.product(op, (0, 0), u, v)
    else:
        m = b.product
    witnesses, instances = [], 0
    for i, j, k in itertools.product(range(b.dim), repeat=3):
        x, y, z = b.basis(i), b.basis(j), b.basis(k)
        for law, lhs, rhs in _classic_instances(kind, m, x, y, z):
            instances += 1
            if lhs != rhs:
                witnesses.append((law, (i, j, k)))
    return witnesses, instances


def _assert_matches(report, reference):
    witnesses, instances = reference
    assert report.witnesses == witnesses
    assert report.details["instances"] == instances


FAMILY_KINDS = {
    "dendriform2": ("diassociative", ("prec", "succ")),
    "prelie2": ("perm", ("rhd",)),
    "assoc_family": ("associative", ("mul",)),
    "twisted_family": ("twist_associative", ("mul",)),
    "napnap_family": ("napnapprime", ("mul",)),
}


def _mixed_denominators(dim, w, ops, seed):
    """A random family whose every operation and parameter pair has its own
    denominator, so the scan's common denominator is none of theirs."""
    rng = random.Random(seed)
    primes = iter((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    return FamilyBilinear(dim, w, {
        op: {p: [[[Fraction(rng.choice((0, 0, -2, -1, 1, 2)), den) for _ in range(dim)]
                  for _ in range(dim)] for _ in range(dim)]
             for p, den in zip(itertools.product(range(w), repeat=2), primes)}
        for op in ops})


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
def test_family_laws_match_the_literal_restatement(kind):
    prereq, ops = FAMILY_KINDS[kind]
    failing = 0
    for n, s in enumerate(omega.enumerate_structures(2, prereq)):
        for dim in (1, 2):
            for a in (random_family(dim, 2, ops, seed=100 * n + dim),
                      random_family(dim, 2, ops, seed=100 * n + dim, max_denominator=7),
                      _mixed_denominators(dim, 2, ops, seed=100 * n + dim)):
                report = check_family_laws(a, s, kind)
                _assert_matches(report, _reference_family(a, s, kind))
                failing += not report.passed
        nilpotent = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        nilpotent[0][0][1] = Fraction(1)
        c = constant_family(2, 2, dict.fromkeys(ops, nilpotent))
        _assert_matches(check_family_laws(c, s, kind), _reference_family(c, s, kind))
    assert failing


@pytest.mark.parametrize("kind", ["associative", "prelie", "dendriform", "duplicial"])
def test_classic_laws_match_the_literal_restatement(kind):
    ops = {"associative": ("mul",), "prelie": ("rhd",)}.get(kind, ("prec", "succ"))
    for seed in range(20):
        for a in (random_family(1 + seed % 2, 1, ops, seed=seed),
                  random_family(1 + seed % 2, 1, ops, seed=seed, max_denominator=7),
                  _mixed_denominators(1 + seed % 2, 1, ops, seed=seed)):
            _assert_matches(check_classic_laws(a, kind), _reference_classic(a, kind))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.fractions().filter(bool), st.sampled_from(sorted(FAMILY_KINDS)))
def test_a_common_factor_on_every_cube_keeps_the_witnesses(seed, factor, kind):
    # every side has two product nodes, so it scales by factor**2 on both sides
    prereq, ops = FAMILY_KINDS[kind]
    s = omega.enumerate_structures(2, prereq)[seed % 3]
    a = random_family(2, 2, ops, seed=seed, max_denominator=5)
    scaled = FamilyBilinear(2, 2, {op: {p: [[[factor * v for v in row] for row in plane]
                                             for plane in cube]
                                        for p, cube in by_param.items()}
                                   for op, by_param in a.ops.items()})
    assert check_family_laws(scaled, s, kind).witnesses == \
        check_family_laws(a, s, kind).witnesses


def test_every_law_is_homogeneous():
    def products(term):
        return 0 if isinstance(term, int) else 1 + products(term[1]) + products(term[2])

    tables = [*linear._CLASSIC_LAWS.items(), *linear._FAMILY_LAWS.values()]
    laws = [law for name, ids in tables for law in zip(ids, omega.RELATIONS[name].relations)]
    assert len(laws) == 16
    for _, relation in laws:
        assert {products(term) for term, _ in relation} == {2}


def test_a_law_of_mixed_degree_is_rejected():
    # (xy)z = xy: the scan would compare L^2 and L times the rational sides,
    # and no presentation, hence no law, has members of different arities.
    xy = ("mul", 1, 2)
    relation = ((("mul", xy, 3), 1), (xy, 1))
    with pytest.raises(PreconditionError, match="arities"):
        omega.Presentation(("mul",), "planar", (relation,), "associative")


def test_graded_classic_laws_match_the_literal_restatement():
    z = zinbiel_truncated(3, 2)
    r = random_family(2, 2, ("prec", "succ"), seed=11)
    for s in omega.enumerate_structures(2, "diassociative")[:6] + [
            OmegaStructure(2, [[0, 1], [1, 0]], [[0, 0], [0, 0]])]:
        for kind in ("dendriform", "duplicial"):
            for a in (z, r):
                g = make_graded(a, s, kind)
                _assert_matches(check_classic_laws(g, kind), _reference_classic(g, kind))
    p = prelie_rooted_truncated(3, 2)
    for table in ALL_TABLES_2[::3]:
        g = make_graded(p, Magma(2, table), "prelie")
        _assert_matches(check_classic_laws(g, "prelie"), _reference_classic(g, "prelie"))


def test_single_parameter_family_witnesses_are_the_classical_ones():
    rename = {"F1": "C1", "F2": "C2", "F3": "C3", "PL": "prelie", "FA": "assoc"}
    one = Magma(1, [[0]])
    cases = [("dendriform2", "dendriform", ds_projections(1), ("prec", "succ")),
             ("prelie2", "prelie", one, ("rhd",)),
             ("assoc_family", "associative", one, ("mul",))]
    for family_kind, kind, s, ops in cases:
        failing = 0
        for seed in range(10):
            a = random_family(2, 1, ops, seed=seed)
            family = check_family_laws(a, s, family_kind)
            assert [(rename[law], args[:3]) for law, args in family.witnesses] == \
                check_classic_laws(a, kind).witnesses
            failing += not family.passed
        assert failing


def test_missing_tables_raise_typed_errors():
    p = prelie_rooted_truncated(3, 2)
    with pytest.raises(PreconditionError, match="'rhd'"):
        make_graded(p, PROJ2, "prelie")
    with pytest.raises(PreconditionError, match="'mul'"):
        check_classic_laws(prelie_rooted_truncated(3, 1), "associative")
    with pytest.raises(PreconditionError, match="'succ'"):
        make_graded(constant_family(1, 2, {"prec": [[[1]]]}), PROJ2, "dendriform")
    with pytest.raises(PreconditionError, match="'prec', 'succ'"):
        check_family_laws(zero_family(1, 2, ("mul",)), PROJ2, "dendriform2")
    # A magma is not read as both arrows; from_semigroup makes it so.
    z, m = zinbiel_truncated(3, 2), Magma(2, [[0, 0], [0, 0]])
    with pytest.raises(PreconditionError, match="'prec'"):
        make_graded(z, m, "dendriform")
    with pytest.raises(PreconditionError, match="OmegaStructure"):
        check_family_laws(z, m, "dendriform2")
    assert make_graded(z, from_semigroup(m), "dendriform").grades == \
        {"prec": m.table, "succ": m.table}
