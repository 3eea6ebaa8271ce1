"""Every integer the public API takes goes through one rule, ``omega._integers``:
an ``int``, not a ``bool``, in range, or a ``PreconditionError``."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famop import dims, duplicial, linear, omega, operads, presentations, trees
from famop.errors import PreconditionError
from famop.omega import Magma, NatMultiset, OmegaStructure, TwistedMonomial, ds_projections

_PROJ2 = ds_projections(2)
_EDUS1 = OmegaStructure(1, [[0]], [[0]], [[0]], [[0]])
_ZERO2 = [[0, 0], [0, 0]]
_X = trees.parse("(x . . _ _)")
_DUP = presentations.preset("duplicial")
_TABLES = presentations.omega_algebra_from_structure(_DUP, _PROJ2)
_COLORED = presentations.ColoredTerm(("f", 1, 2), (0, 1), 0)
_GRADED = duplicial.GradedElement


def _tree_json(edge):
    leaf = {"dec": "x", "lt": None, "rt": None, "left": None, "right": None}
    return {**leaf, "lt": edge, "left": leaf}


# (name, call with the value under test, lowest valid value or None, highest or None)
_SITES = [
    ("OmegaStructure size", lambda v: OmegaStructure(v, [[0]], [[0]]), 1, None),
    ("Magma size", lambda v: Magma(v, [[0]]), 1, None),
    ("table entry", lambda v: OmegaStructure(2, [[0, v], [0, 0]], _ZERO2), 0, 1),
    ("triangle entry", lambda v: OmegaStructure(2, _ZERO2, _ZERO2, _ZERO2, [[v, 0], [0, 0]]),
     0, 1),
    ("ds_projections", lambda v: ds_projections(v), 1, None),
    ("enumerate_structures", lambda v: omega.enumerate_structures(v, "associative"), 1, None),
    ("NatMultiset entry", lambda v: NatMultiset((1, v)), 1, None),
    ("TwistedMonomial multiplicity", lambda v: TwistedMonomial("a", "a", {"a": v}), 0, None),
    ("IntPoly coefficient", lambda v: dims.IntPoly((1, v)), None, None),
    ("IntPoly.monomial power", lambda v: dims.IntPoly.monomial(v), 0, None),
    ("IntPoly.monomial coefficient", lambda v: dims.IntPoly.monomial(1, v), None, None),
    ("IntPoly.shift", lambda v: dims.W.shift(v), None, None),
    ("IntPoly.divisible_by_power", lambda v: dims.W.divisible_by_power(v), 0, None),
    ("relation leaf", lambda v: omega.Presentation(("f",), "planar", [
        [(("f", ("f", v, 2), 3), 1), (("f", 1, ("f", 2, 3)), 1)]]), 1, 1),
    ("PolySeries order", lambda v: dims.PolySeries(v, (dims.ONE,)), 1, None),
    ("PolySeries.r", lambda v: dims.r_sequence(3).r(v), 1, 3),
    ("r_sequence", lambda v: dims.r_sequence(v), 1, None),
    ("count_basis_trees n", lambda v: dims.count_basis_trees(v, 2), 1, None),
    ("count_basis_trees w", lambda v: dims.count_basis_trees(3, v), 1, None),
    ("count_basis_trees table",
     lambda v: dims.count_basis_trees(3, 2, ([[0, v], [0, 0]], _ZERO2)), 0, 1),
    ("check_axioms max_vertices",
     lambda v: duplicial.check_axioms("two_param", _PROJ2, max_vertices=v), 1, None),
    ("check_axioms x_size",
     lambda v: duplicial.check_axioms("graded", _EDUS1, x_size=v, max_vertices=1), 1, None),
    ("prec2 edge", lambda v: duplicial.prec2(_X, _X, v, 0, _PROJ2), 0, 1),
    ("prec1 edge", lambda v: duplicial.prec1(_X, _X, v, _EDUS1), 0, 0),
    ("graded_prec color",
     lambda v: duplicial.graded_prec(_GRADED(_X, v), _GRADED(_X, 0), _EDUS1), 0, 0),
    ("graded_succ color",
     lambda v: duplicial.graded_succ(_GRADED(_X, 0), _GRADED(_X, v), _EDUS1), 0, 0),
    ("check_operad_laws", lambda v: operads.check_operad_laws("pairs", v), 1, None),
    ("perm_surjection", lambda v: operads.perm_surjection("pairs", v), 1, None),
    ("psi_phi_roundtrip", lambda v: operads.psi_phi_roundtrip(v), 1, None),
    ("enumerate_terms", lambda v: presentations.enumerate_terms(_DUP, v), 1, None),
    ("input color", lambda v: presentations.mixing_filter(_DUP, _TABLES, 2, (0, v), 0), 0, 1),
    ("output color", lambda v: presentations.mixing_filter(_DUP, _TABLES, 2, (0, 1), v), 0, 1),
    ("ColoredTerm input color", lambda v: presentations.ColoredTerm(("f", 1, 2), (0, v), 0),
     0, None),
    ("ColoredTerm output color", lambda v: presentations.ColoredTerm(("f", 1, 2), (0, 1), v),
     0, None),
    ("colored_compose", lambda v: presentations.colored_compose(_COLORED, v, _COLORED), 1, 2),
    ("compose_terms", lambda v: presentations.compose_terms(("f", 1, 2), v, ("g", 1, 2)), 1, 2),
    ("catalan", lambda v: trees.catalan(v), 1, None),
    ("tree_count n", lambda v: trees.tree_count(v, 1, 1), 0, None),
    ("tree_count x_size", lambda v: trees.tree_count(1, v, 1), 1, None),
    ("tree_count w", lambda v: trees.tree_count(1, 1, v), 1, None),
    ("tree JSON edge type", lambda v: trees.from_json(_tree_json(v)), 0, None),
    ("FamilyBilinear dim", lambda v: linear.FamilyBilinear(v, 1, {}), 1, None),
    ("FamilyBilinear omega_size", lambda v: linear.FamilyBilinear(1, v, {}), 1, None),
    ("GradedBasisAlgebra base_dim", lambda v: linear.GradedBasisAlgebra(v, 1, {}, {}), 1, None),
    ("zero_family omega_size", lambda v: linear.zero_family(2, v, ("mul",)), 1, None),
    ("random_family dim", lambda v: linear.random_family(v, 1, ("mul",), 0), 1, None),
    ("zinbiel_truncated", lambda v: linear.zinbiel_truncated(v), 1, None),
    ("prelie_rooted_truncated", lambda v: linear.prelie_rooted_truncated(v), 1, None),
]


def _bad_values(low, high):
    """Floats (integral ones too), bools, numeric strings, and ints outside low..high."""
    out = (st.floats() | st.integers(-2, 5).map(float) | st.booleans() |
           st.integers(-2, 5).map(str))
    if low is not None:
        out |= st.integers(low - 3, low - 1)
    if high is not None:
        out |= st.integers(high + 1, high + 3)
    return out


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_integer_parameter_refuses_what_is_not_an_integer_in_range(data):
    name, call, low, high = data.draw(st.sampled_from(_SITES), label="site")
    value = data.draw(_bad_values(low, high), label="value")
    with pytest.raises(PreconditionError):
        call(value)


@pytest.mark.parametrize("name,call,low,high", _SITES, ids=[site[0] for site in _SITES])
def test_every_integer_parameter_takes_its_valid_ends(name, call, low, high):
    for value in {v for v in (low, high) if v is not None}:
        call(value)


@pytest.mark.parametrize("data", ["12", [1.5, 2], 5, {"a": 1}, [True], ["1"]])
def test_intpoly_from_json_takes_a_list_of_integers_only(data):
    with pytest.raises(PreconditionError):
        dims.IntPoly.from_json(data)
    assert dims.IntPoly.from_json([1, 2, 0]) == dims.IntPoly((1, 2))


def test_a_refusal_names_the_parameter_its_range_and_the_value():
    with pytest.raises(PreconditionError, match=r"input colors must lie in 0\.\.1, not 2"):
        presentations.mixing_filter(_DUP, _TABLES, 2, (0, 2), 0)
    with pytest.raises(PreconditionError, match="x_size must be at least 1, not 0"):
        duplicial.check_axioms("graded", _EDUS1, x_size=0)
    with pytest.raises(PreconditionError, match="table entry 1.0 is not an integer"):
        Magma(2, [[0, 1.0], [0, 0]])
    with pytest.raises(PreconditionError, match=r"position must lie in 1\.\.2, not 3"):
        presentations.compose_terms(("f", 1, 2), 3, ("g", 1, 2))


@given(st.text(st.sampled_from("ab_.( )\t "), max_size=5))
def test_a_word_is_exactly_what_the_tokenizer_reads_as_one_word(text):
    assert omega._word(text) == (text not in "()" and trees._TOKEN.findall(text) == [text])
