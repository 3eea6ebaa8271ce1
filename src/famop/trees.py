"""Typed decorated planar binary trees.

A tree is either the leaf (``None``) or a ``Node`` carrying a decoration,
two subtrees and the types of the two edges below its vertex.  An edge
type is ``None`` (the sentinel, exactly when the child is a leaf), a
single value, or a pair of values; all non-sentinel types in one tree
share the same flavor.

Textual grammar: leaf = ``_``; node = ``(dec LT RT LEFT RIGHT)``;
edge types: ``.`` sentinel, ``3`` single, ``1:0`` pair.  ``Bracketed`` reads
this bracket syntax for both the trees here and the terms of
``presentations``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError, ResourceBoundError
from .omega import _json_fields

Leaf = None

# Edge type values are opaque to this module: concrete runs use ints and
# int pairs, symbolic runs substitute expression objects.  Only two shape
# questions are ever asked: "is it the sentinel?" (is None) and "is it a
# pair?" (a tuple).


@dataclass(frozen=True)
class Node:
    dec: str
    lt: object
    left: "Node | None"
    rt: object
    right: "Node | None"

    def __post_init__(self):
        if (self.lt is None) != (self.left is None):
            raise ValueError("left edge type must be the sentinel exactly when "
                             "the left child is a leaf")
        if (self.rt is None) != (self.right is None):
            raise ValueError("right edge type must be the sentinel exactly when "
                             "the right child is a leaf")
        # A child was checked when it was built, so its own edge types carry
        # its flavor.  A pair sits with pairs only; single types may differ.
        l, r = self.left, self.right
        kinds = set(map(type, (self.lt, self.rt, l and l.lt, l and l.rt, r and r.lt, r and r.rt)))
        kinds.discard(type(None))
        if tuple in kinds and len(kinds) > 1:
            raise ValueError("mixed single and pair edge types in one tree")


Tree = Node | None


def graft(t1: Tree, dec: str, a, b, t2: Tree) -> Node:
    """Join two trees under a new root decorated by ``dec``.

    ``a`` types the edge to ``t1`` and ``b`` the edge to ``t2``; each must
    be the sentinel exactly when the corresponding tree is a leaf.
    """
    return Node(dec, a, t1, b, t2)


def vertices(t: Tree) -> int:
    if t is None:
        return 0
    return 1 + vertices(t.left) + vertices(t.right)


def leaves(t: Tree) -> int:
    return vertices(t) + 1


def depth(t: Tree) -> int:
    """Maximal number of vertices on a root-to-leaf chain."""
    if t is None:
        return 0
    return 1 + max(depth(t.left), depth(t.right))


@dataclass(frozen=True)
class TreeStats:
    internal_vertices: int
    leaves: int
    depth: int


def stats(t: Tree) -> TreeStats:
    return TreeStats(vertices(t), leaves(t), depth(t))


# ---------------------------------------------------------------------------
# Enumeration


def catalan(k: int) -> int:
    """Catalan numbers indexed so that catalan(1) = catalan(2) = 1."""
    if k < 1:
        raise ValueError("index must be >= 1")
    return math.comb(2 * k - 2, k - 1) // k


def expected_tree_count(n: int, x_size: int, w: int, flavor: str) -> int:
    """Closed count of n-vertex trees: shapes * decorations * edge types."""
    if n == 0:
        return 1
    k = 1 if flavor == "single" else 2
    return catalan(n + 1) * x_size ** n * w ** (k * (n - 1))


def dec_labels(x_size: int) -> list[str]:
    return [f"x{i}" for i in range(x_size)]


def tree_count(n: int, x_size: int, w: int, flavor: str = "single") -> int:
    """The number of trees ``enumerate_trees`` lists, under its bounds."""
    if flavor not in ("single", "pair"):
        raise ValueError("flavor must be 'single' or 'pair'")
    if n < 0 or x_size < 1 or w < 1:
        raise ValueError("n >= 0, x_size >= 1 and w >= 1 required")
    if n > 6 or expected_tree_count(n, x_size, w, flavor) > 500_000:
        raise ResourceBoundError("tree enumeration bound exceeded")
    return expected_tree_count(n, x_size, w, flavor)


def enumerate_trees(n: int, x_size: int, w: int, flavor: str = "single") -> list[Tree]:
    """All trees with ``n`` internal vertices, decorations from a canonical
    ``x_size``-element set and non-sentinel edge types over ``{0..w-1}``
    (or pairs thereof), in canonical (serialization) order."""
    tree_count(n, x_size, w, flavor)
    if flavor == "single":
        types = list(range(w))
    else:
        types = [(a, b) for a in range(w) for b in range(w)]
    decs = dec_labels(x_size)

    def gen(k: int) -> list[Tree]:
        if k == 0:
            return [Leaf]
        out = []
        for i in range(k):
            for left in gen(i):
                for right in gen(k - 1 - i):
                    lts = [None] if left is None else types
                    rts = [None] if right is None else types
                    for dec in decs:
                        for lt in lts:
                            for rt in rts:
                                out.append(Node(dec, lt, left, rt, right))
        return out

    return sorted(gen(n), key=serialize)


# ---------------------------------------------------------------------------
# Codec


def _type_text(et) -> str:
    if et is None:
        return "."
    if isinstance(et, tuple):
        return f"{et[0]}:{et[1]}"
    return str(et)


def serialize(t: Tree) -> str:
    """Canonical text form; ``parse`` inverts it."""
    if t is None:
        return "_"
    return (f"({t.dec} {_type_text(t.lt)} {_type_text(t.rt)} "
            f"{serialize(t.left)} {serialize(t.right)})")


# Deepest bracket nesting the reader accepts.  The codecs, the products and
# tree equality recurse one to three frames per level, so this stays well
# below the interpreter's default limit of 1000 frames.
MAX_DEPTH = 200

_TOKEN = re.compile(r"[()]|[^\s()]+")


class Bracketed:
    """``text`` read as one bracket item: the front end of the tree and
    term grammars.  ``tokens`` are the brackets and words of the text.  An
    item is a token index, or a group: the list of the parts of one
    ``( ... )``, both bracket indices included.  One regex pass and an
    explicit stack build it; positions are worked out only for an error.
    """

    def __init__(self, text: str):
        self.text, self.tokens = text, _TOKEN.findall(text)
        stack = [[]]  # the top level, then the groups still open
        for i, tok in enumerate(self.tokens):
            if tok == "(":
                if len(stack) > MAX_DEPTH:
                    raise self.error(i, f"nesting deeper than {MAX_DEPTH}")
                stack.append([i])
            elif tok != ")":
                stack[-1].append(i)
            elif len(stack) > 1:
                stack[-1].append(i)
                stack[-2].append(stack.pop())
            else:
                raise self.error(i, "unexpected ')'")
        if len(stack) > 1 or not stack[0]:
            raise self.error(len(self.tokens), "unexpected end of input")
        if len(stack[0]) > 1:
            raise self.error(stack[0][1], "trailing input")
        self.item = stack[0][0]

    def error(self, part, message: str) -> ParseError:
        """A ParseError at the first token of ``part``."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[part if type(part) is int else part[0]])

    def word(self, part, what: str) -> str:
        """The token of ``part``, which must not be a group."""
        if type(part) is not int:
            raise self.error(part, f"bad {what} '('")
        return self.tokens[part]

    def fields(self, group, n: int) -> list:
        """The ``n`` parts between the brackets of ``group``."""
        if len(group) != n + 2:
            raise self.error(group[min(len(group) - 1, n + 1)], f"expected {n} fields and ')'")
        return group[1:-1]


def _digits(text: str) -> bool:
    """Numbers in the text grammars are ASCII digits only (``int`` alone
    would also read ``+2``, ``1_0`` and the digits of other scripts)."""
    return text.isascii() and text.isdigit()


def _parse_type(src: Bracketed, part):
    token = src.word(part, "edge type")
    if token == ".":
        return None
    numbers = token.split(":")
    if len(numbers) > 2 or not all(map(_digits, numbers)):
        raise src.error(part, f"bad edge type {token!r}")
    return tuple(map(int, numbers)) if len(numbers) == 2 else int(token)


def parse(text: str) -> Tree:
    """Parse the textual grammar; raises ParseError with a position."""
    src = Bracketed(text)

    def node(part) -> Tree:
        if type(part) is int:
            if src.tokens[part] == "_":
                return Leaf
            raise src.error(part, f"expected '(' or '_', got {src.tokens[part]!r}")
        dec, lt, rt, left, right = src.fields(part, 5)
        dec_text = src.word(dec, "decoration")
        if dec_text in "._":
            raise src.error(dec, f"bad decoration {dec_text!r}")
        left, right = node(left), node(right)
        lt, rt = _parse_type(src, lt), _parse_type(src, rt)
        try:
            return Node(dec_text, lt, left, rt, right)
        except ValueError as exc:
            raise src.error(part, str(exc)) from None

    return node(src.item)


def to_json(t: Tree):
    """JSON mirror: null subtrees and null sentinel types; pair types as
    two-element arrays."""
    if t is None:
        return None

    def jt(et):
        return list(et) if isinstance(et, tuple) else et

    return {"dec": t.dec, "lt": jt(t.lt), "rt": jt(t.rt),
            "left": to_json(t.left), "right": to_json(t.right)}


def from_json(data) -> Tree:
    if data is None:
        return Leaf
    dec, lt, rt, left, right = _json_fields(data, "tree", "dec", "lt", "rt", "left", "right")
    lt, rt = (tuple(v) if isinstance(v, list) else v for v in (lt, rt))
    return Node(dec, lt, from_json(left), rt, from_json(right))
