"""Family algebras by structure constants: laws, grading, equivalence."""
import itertools
from fractions import Fraction

import pytest

from famop import linear, omega
from famop.errors import PreconditionError
from famop.linear import (FamilyBilinear, check_classic_laws,
                          check_family_laws, color_support_ok,
                          constant_family, make_graded,
                          prelie_rooted_truncated, random_family, zero_family,
                          zinbiel_truncated)
from famop.omega import Magma, OmegaStructure, ds_projections

PROJ2 = ds_projections(2)
PERM2 = Magma(2, [[0, 0], [0, 0]])
ALL_TABLES_2 = [tuple(tuple(cells[i * 2:(i + 1) * 2]) for i in range(2))
                for cells in itertools.product(range(2), repeat=4)]


def _one_dim(value_prec, value_succ, w=1):
    return constant_family(1, w, {"prec": [[[Fraction(value_prec)]]],
                                  "succ": [[[Fraction(value_succ)]]]})


def test_zero_family_passes_every_kind():
    for kind, structure in [("dendriform2", PROJ2), ("prelie2", PERM2),
                            ("assoc_family", PERM2), ("twisted_family", PERM2),
                            ("napnap_family", PERM2)]:
        ops = linear._FAMILY_OPS[kind]
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
    assert not check_classic_laws(p, "associative").passed


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
            lhs = linear._sub(
                b.product("rhd", (al, la(be, ga)), x, b.product("rhd", (be, ga), y, z)),
                b.product("rhd", (la(al, be), ga), b.product("rhd", (al, be), x, y), z))
            assert not any(lhs)


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


def test_family_validation():
    with pytest.raises(ValueError):
        FamilyBilinear(1, 2, {"prec": {(0, 0): [[[Fraction(0)]]]}})
    with pytest.raises(ValueError):
        check_family_laws(zero_family(1, 2, ("prec", "succ")), PROJ2, "nonsense")
    with pytest.raises(ValueError):
        check_family_laws(zero_family(1, 3, ("prec", "succ")), PROJ2, "dendriform2")
