"""Typed trees: grafting, enumeration counts, depth, codecs."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famop import trees
from famop.errors import ParseError, PreconditionError, ResourceBoundError
from famop.trees import (MAX_DEPTH, Leaf, Node, depth, enumerate_trees, from_json,
                         graft, parse, serialize, stats, to_json, vertices)


def single(dec="x"):
    return Node(dec, None, None, None, None)


def test_graft_single_vertex():
    t = graft(Leaf, "x", None, None, Leaf)
    assert t == single()
    assert vertices(t) == 1


def test_graft_leaf_to_nonleaf():
    t = graft(Leaf, "x", None, 0, single("y"))
    assert serialize(t) == "(x . 0 _ (y . . _ _))"


def test_graft_sentinel_convention_enforced():
    with pytest.raises(ValueError):
        graft(Leaf, "x", 0, None, Leaf)
    with pytest.raises(ValueError):
        graft(single("y"), "x", None, None, Leaf)


def test_flavors_must_agree():
    with pytest.raises(ValueError):
        Node("x", (0, 0), single("y"), 1, single("z"))
    inner = Node("y", None, None, 0, single("z"))
    with pytest.raises(ValueError):
        Node("x", None, None, (0, 1), inner)


def test_depth_pins():
    assert depth(Leaf) == 0
    assert depth(single()) == 1
    two = Node("x", 0, single("y"), None, None)
    assert depth(two) == 2
    comb3 = Node("x", None, None, 0, Node("y", None, None, 0, single("z")))
    assert depth(comb3) == 3


def test_stats_invariant():
    for t in enumerate_trees(3, 1, 2, "single"):
        s = stats(t)
        assert s.leaves == s.internal_vertices + 1
        assert 1 <= s.depth <= s.internal_vertices


@pytest.mark.parametrize("flavor", ["single", "pair"])
@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("x_size,w", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_enumeration_counts_match_closed_formula(n, x_size, w, flavor):
    got = enumerate_trees(n, x_size, w, flavor)
    assert len(got) == trees.expected_tree_count(n, x_size, w, flavor)
    assert len(set(map(serialize, got))) == len(got)


def test_enumeration_basic_pins():
    assert enumerate_trees(0, 1, 1, "single") == [Leaf]
    assert len(enumerate_trees(2, 1, 2, "single")) == 4
    assert len(enumerate_trees(3, 1, 1, "single")) == 5


def test_enumeration_bound():
    with pytest.raises(ResourceBoundError):
        enumerate_trees(7, 1, 1, "single")
    with pytest.raises(ResourceBoundError):
        enumerate_trees(5, 3, 4, "pair")


def test_grafting_bijection():
    for t in enumerate_trees(3, 2, 2, "pair"):
        assert t == graft(t.left, t.dec, t.lt, t.rt, t.right)


@pytest.mark.parametrize("flavor,n,x,w", [
    ("single", 3, 2, 2), ("pair", 3, 1, 2), ("single", 4, 1, 2),
    ("pair", 4, 1, 1),
])
def test_codec_roundtrip(flavor, n, x, w):
    for t in enumerate_trees(n, x, w, flavor):
        assert parse(serialize(t)) == t


def test_serialize_pins():
    assert serialize(single()) == "(x . . _ _)"
    assert serialize(Leaf) == "_"
    t = Node("x", None, None, (0, 1), single("y"))
    assert serialize(t) == "(x . 0:1 _ (y . . _ _))"


def test_parse_error_positions():
    with pytest.raises(ParseError):
        parse("(x . 0 _ _)")  # non-sentinel type over a leaf child
    with pytest.raises(ParseError) as exc:
        parse("(x . . _ _) junk")
    assert exc.value.position == 12
    with pytest.raises(ParseError):
        parse("(x . .")
    with pytest.raises(ParseError):
        parse("(x q . _ _)")


def test_nesting_past_the_limit_is_a_parse_error():
    nest = "(x . 0 _ "
    with pytest.raises(ParseError) as exc:
        parse(nest * 1200 + "(y . . _ _)" + ")" * 1200)
    assert exc.value.position == len(nest) * MAX_DEPTH
    t = parse(nest * (MAX_DEPTH - 1) + "(y . . _ _)" + ")" * (MAX_DEPTH - 1))
    assert depth(t) == MAX_DEPTH
    assert parse(serialize(t)) == t


@pytest.mark.parametrize("edge_type", ["1_0", "+2", "\u0663", "-1", "0:+1", "1_0:0", "0:1:2", "0:"])
def test_edge_types_are_ascii_digits(edge_type):
    with pytest.raises(ParseError) as exc:
        parse(f"(x {edge_type} . (y . . _ _) _)")
    assert exc.value.position == 3
    assert parse("(x 10 . (y . . _ _) _)").lt == 10
    assert parse("(x 0:10 . (y . . _ _) _)").lt == (0, 10)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["(", ")", "_", ".", "x0", "0", "1", "1:0", "f", "junk"]),
                max_size=24))
def test_parse_round_trips_or_raises_parse_error(words):
    try:
        t = parse(" ".join(words))
    except ParseError:
        return
    assert parse(serialize(t)) == t


def test_json_mirror_roundtrip():
    for t in enumerate_trees(3, 1, 2, "pair") + enumerate_trees(2, 2, 2, "single"):
        data = to_json(t)
        assert from_json(data) == t
    assert to_json(Leaf) is None
    assert from_json(None) is Leaf


_X = {"dec": "x", "lt": None, "rt": None, "left": None, "right": None}


@pytest.mark.parametrize("data,error", [
    (5, PreconditionError), ("x", PreconditionError), ([], PreconditionError),
    ([_X], PreconditionError), ({"dec": "x"}, PreconditionError),
    ({**_X, "right": 5}, PreconditionError), ({**_X, "right": [_X]}, PreconditionError),
    ({**_X, "rt": 1, "right": {"dec": "y"}}, PreconditionError),
    ({**_X, "lt": 0, "left": "y"}, PreconditionError),
    ({**_X, "lt": 1}, ValueError),
    ({**_X, "lt": [1, 2], "left": _X, "rt": 3, "right": _X}, ValueError),
    ({**_X, "rt": 0, "right": {**_X, "rt": [0, 0], "right": _X}}, ValueError),
])
def test_malformed_tree_json_raises_a_typed_error(data, error):
    with pytest.raises(error):
        from_json(data)
