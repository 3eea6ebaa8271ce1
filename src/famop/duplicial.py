"""Family products on typed trees and their exhaustive axiom checkers.

Two-parameter products act on pair-typed trees: the left operand keeps
first components and has second components updated by the second
parameter, the grafted operand has first components updated by the first
parameter, and the new edge carries the parameter pair.  One-parameter
products act on single-typed trees by the right/left-spine recursion
driven by the four tables of an extended duplicial semigroup.

The checkers quantify over every tree triple up to a vertex bound and
every parameter tuple.  They run the product code once per shape with
opaque symbolic edge types (a graded tree hangs below an edge typed by its
color), then verify the resulting per-edge type equations over all table
assignments: the full concrete quantification at a fraction of the cost.
Witnesses are re-verified on concrete trees (the graded report's first).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from types import SimpleNamespace

from . import trees
from .errors import LAW_BUDGET, PreconditionError, ResourceBoundError
from .omega import (GENERATOR_OPS, RELATIONS, OmegaStructure, _integers, _tables_of,
                    compile_laws, first_violation, passes)
from .report import LawReport
from .trees import Node, serialize


# ---------------------------------------------------------------------------
# Type expressions (used by the symbolic runs of the product code).  A
# variable is its name; an application is not a tuple, which would read as a
# pair type.


@dataclass(frozen=True)
class App:
    op: str
    a: object
    b: object


# Operation provider that builds expressions instead of table lookups.
_SYM = SimpleNamespace(**{op: partial(App, op) for op in ("la", "ra", "lt", "rt")})


def _rename(e, mapping: dict):
    """The expression as an omega term; ``mapping`` numbers the variable
    names in order of first appearance."""
    if isinstance(e, str):
        return mapping.setdefault(e, len(mapping))
    return (e.op, _rename(e.a, mapping), _rename(e.b, mapping))


# ---------------------------------------------------------------------------
# Raw products, generic over the operation provider


def _retype(t, fn):
    """``t`` with every edge type ``e`` replaced by ``fn(e)``, visiting the
    edges in the order lt, left subtree, rt, right subtree."""
    if t is None:
        return None
    return Node(t.dec,
                None if t.lt is None else fn(t.lt), _retype(t.left, fn),
                None if t.rt is None else fn(t.rt), _retype(t.right, fn))


def _attach_rightmost(s: Node, edge_type, t: Node) -> Node:
    if s.right is None:
        return Node(s.dec, s.lt, s.left, edge_type, t)
    return Node(s.dec, s.lt, s.left, s.rt, _attach_rightmost(s.right, edge_type, t))


def _attach_leftmost(t: Node, edge_type, s: Node) -> Node:
    if t.left is None:
        return Node(t.dec, edge_type, s, t.rt, t.right)
    return Node(t.dec, t.lt, _attach_leftmost(t.left, edge_type, s), t.rt, t.right)


def _prec2_raw(s: Node, t: Node, a, b, ops) -> Node:
    s2 = _retype(s, lambda p: (p[0], ops.la(p[1], b)))
    t2 = _retype(t, lambda p: (ops.la(a, p[0]), p[1]))
    return _attach_rightmost(s2, (a, b), t2)


def _succ2_raw(s: Node, t: Node, a, b, ops) -> Node:
    s2 = _retype(s, lambda p: (p[0], ops.ra(p[1], b)))
    t2 = _retype(t, lambda p: (ops.ra(a, p[0]), p[1]))
    return _attach_leftmost(t2, (a, b), s2)


def _prec1_raw(t, w, u, ops):
    if t is None:
        return u
    if u is None:
        return t
    if t.right is None:
        return Node(t.dec, t.lt, t.left, w, u)
    return Node(t.dec, t.lt, t.left, ops.la(t.rt, w),
                _prec1_raw(t.right, ops.lt(t.rt, w), u, ops))


def _succ1_raw(t, w, u, ops):
    if u is None:
        return t
    if t is None:
        return u
    if u.left is None:
        return Node(u.dec, w, t, u.rt, u.right)
    return Node(u.dec, ops.ra(w, u.lt),
                _succ1_raw(t, ops.rt(w, u.lt), u.left, ops), u.rt, u.right)


# ---------------------------------------------------------------------------
# Public products


def _require_kind(o: OmegaStructure, kind: str):
    """A parameter structure of ``kind``, ``duplicial`` or ``edus``."""
    _tables_of(o, kind)
    if not passes(o, kind):
        raise PreconditionError(f"parameter structure must satisfy the "
                                f"{'extended ' * (kind == 'edus')}duplicial laws")


def _require_operands(o: OmegaStructure, kind: str, edges, *ts, laws: bool = True):
    """Non-leaf operands ``ts``, a structure with the tables of ``kind`` that
    passes its laws when ``laws`` is set, and the new ``edges`` and every edge
    type of ``ts`` of the product's flavor (an int pair for ``duplicial``, an
    int for ``edus``) with values in 0..size-1."""
    if any(t is None for t in ts):
        raise PreconditionError("products are defined on non-leaf trees only")
    if laws:
        _require_kind(o, kind)
    else:
        _tables_of(o, kind)
    pair = kind == "duplicial"
    types, nodes = list(edges), list(ts)
    for t in nodes:  # the list grows by each node's children: every node once
        if t.left is not None:
            types.append(t.lt)
            nodes.append(t.left)
        if t.right is not None:
            types.append(t.rt)
            nodes.append(t.right)
    for e in types:
        if isinstance(e, tuple) != pair or pair and len(e) != 2:
            raise PreconditionError(f"edge type {e} is not an int{' pair' * pair}")
    values = itertools.chain(*types) if pair else types
    _integers("edge type value", *values, low=0, high=o.size - 1)


def prec2(s: Node, t: Node, alpha: int, beta: int, o: OmegaStructure) -> Node:
    """Graft t at the rightmost leaf of s; new edge typed (alpha, beta),
    s edges (w, u) -> (w, u <- beta), t edges (w, u) -> (alpha <- w, u)."""
    _require_operands(o, "duplicial", [(alpha, beta)], s, t)
    return _prec2_raw(s, t, alpha, beta, o)


def succ2(s: Node, t: Node, alpha: int, beta: int, o: OmegaStructure) -> Node:
    """Graft s at the leftmost leaf of t; new edge typed (alpha, beta),
    t edges (w, u) -> (alpha -> w, u), s edges (w, u) -> (w, u -> beta)."""
    _require_operands(o, "duplicial", [(alpha, beta)], s, t)
    return _succ2_raw(s, t, alpha, beta, o)


def prec1(t: Node, u: Node, omega: int, e: OmegaStructure) -> Node:
    """One-parameter left product on single-typed trees over an extended
    duplicial semigroup."""
    _require_operands(e, "edus", [omega], t, u)
    return _prec1_raw(t, omega, u, e)


def succ1(t: Node, u: Node, omega: int, e: OmegaStructure) -> Node:
    """One-parameter right product on single-typed trees."""
    _require_operands(e, "edus", [omega], t, u)
    return _succ1_raw(t, omega, u, e)


# ---------------------------------------------------------------------------
# Law tables for the checkers


_PRODUCTS = {"two_param": {"prec": _prec2_raw, "succ": _succ2_raw},
             "graded": {"prec": lambda s, t, p, q, ops: _prec1_raw(s, ops.lt(p, q), t, ops),
                        "succ": lambda s, t, p, q, ops: _succ1_raw(s, ops.rt(p, q), t, ops)}}


def _node(mode: str, gen: str, x, p, y, q, ops) -> tuple:
    """A family node: operands ``x`` and ``y`` carrying parameters p and q give
    the mode's product at (p, q) and its grade, the generator's arrow at (p, q)."""
    return _PRODUCTS[mode][gen](x, y, p, q, ops), getattr(ops, GENERATOR_OPS[gen])(p, q)


def _tree_law(relation, mode: str):
    """The law of one duplicial relation on typed trees, in ``two_param``
    or ``graded`` mode.

    A variable is a tree with its parameter and a product a ``_node``.  A
    graded side is its tree hung below a root edge typed by its grade, so
    grades compare as edge types do."""
    (lhs, _), (rhs, _) = relation

    def law(s, t, u, a, b, c, ops):
        leaves = {1: (s, a), 2: (t, b), 3: (u, c)}

        def value(term):
            if isinstance(term, int):
                return leaves[term]
            gen, left, right = term
            return _node(mode, gen, *value(left), *value(right), ops)

        if mode == "two_param":
            return value(lhs)[0], value(rhs)[0]
        return tuple(trees.graft(x, "", grade, None, None) for x, grade in map(value, (lhs, rhs)))

    return law


def _law_op1(s, t, u, a, b, c, ops):
    del c
    lhs = _prec1_raw(_prec1_raw(s, a, t, ops), b, u, ops)
    rhs = _prec1_raw(s, ops.la(a, b), _prec1_raw(t, ops.lt(a, b), u, ops), ops)
    return lhs, rhs


def _law_op2(s, t, u, a, b, c, ops):
    del c
    lhs = _succ1_raw(s, a, _prec1_raw(t, b, u, ops), ops)
    rhs = _prec1_raw(_succ1_raw(s, a, t, ops), b, u, ops)
    return lhs, rhs


def _law_op3(s, t, u, a, b, c, ops):
    del c
    lhs = _succ1_raw(s, a, _succ1_raw(t, b, u, ops), ops)
    rhs = _succ1_raw(_succ1_raw(s, ops.rt(a, b), t, ops), ops.ra(a, b), u, ops)
    return lhs, rhs


_MODE_LAWS = {mode: tuple((f"{prefix}{n}", _tree_law(relation, mode)) for n, relation
                          in enumerate(RELATIONS["duplicial"].relations, 1))
              for mode, prefix in (("two_param", "TP"), ("graded", "G"))}
_MODE_LAWS["one_param"] = (("OP1", _law_op1), ("OP2", _law_op2), ("OP3", _law_op3))
_MODE_PARAMS = {"two_param": 3, "one_param": 2}
_MODE_KINDS = {"two_param": "duplicial", "one_param": "edus", "graded": "edus"}  # tables read
_PARAMS = ("pa", "pb", "pc")  # the symbolic parameters of x, y and z


# ---------------------------------------------------------------------------
# Symbolic obligations


def _edge_names(prefix: str, pair: bool):
    """The symbolic types of a tree's edges in ``_retype`` order: the k-th is
    ``{prefix}{k}``, or the pair of ``{prefix}{k}f`` and ``{prefix}{k}s``."""
    return ((f"{prefix}{k}f", f"{prefix}{k}s") if pair else f"{prefix}{k}"
            for k in itertools.count())


@dataclass(frozen=True)
class _Obligation:
    law: tuple  # (law id, lhs, rhs) as omega terms
    var_names: tuple  # the symbolic name of each term variable
    origin: tuple  # the symbolic operands (s, t, u); their parameters are _PARAMS


def _collect_type_pairs(l, r, out: list):
    if (l is None) != (r is None):
        raise AssertionError("shape mismatch in symbolic law evaluation")
    if l is None:
        return
    if l.dec != r.dec:
        raise AssertionError("decoration mismatch in symbolic law evaluation")
    for el, er in ((l.lt, r.lt), (l.rt, r.rt)):
        if (el is None) != (er is None):
            raise AssertionError("sentinel mismatch in symbolic law evaluation")
        if el is None:
            continue
        if isinstance(el, tuple):
            out.append((el[0], er[0]))
            out.append((el[1], er[1]))
        else:
            out.append((el, er))
    _collect_type_pairs(l.left, r.left, out)
    _collect_type_pairs(l.right, r.right, out)


def _shape(t) -> str:
    """``t`` without decorations and edge types, as text."""
    return "_" if t is None else f"({_shape(t.left)}{_shape(t.right)})"


@lru_cache(maxsize=16)
def _plan(mode: str, max_vertices: int) -> tuple:
    """The mode's checking plan up to the vertex bound: its obligations, the
    distinct per-edge type equations of its laws over all tree triples; their
    compiled check ``(ops, check)``, held so that a call neither rebuilds nor
    hashes the tuple of their laws; and, for ``graded``, every use of an
    obligation by (shape texts, law id) as (obligation index, variable names),
    which the graded report needs.  Decorations never enter a type equation,
    so the shapes carry a single one."""
    pair, graded = mode == "two_param", mode == "graded"
    shapes = []
    for n in range(1, max_vertices + 1):
        shapes.extend(trees.enumerate_trees(n, 1, 1, "pair" if pair else "single"))
    if len(_MODE_LAWS[mode]) * len(shapes) ** 3 > LAW_BUDGET:
        raise ResourceBoundError(f"{mode} obligations at max_vertices {max_vertices}: over budget")

    def fresh(t, prefix: str):
        names = _edge_names(prefix, pair)
        return _retype(t, lambda _: next(names))

    # Each position's operands, every shape with its edges typed by that position's names.
    operands = [[(_shape(t), fresh(t, prefix)) for t in shapes] for prefix in "stu"]
    seen: dict = {}  # (lhs, rhs) -> its obligation's index
    obligations: list = []
    uses: dict = {}
    for (s0, s), (t0, t), (u0, u) in itertools.product(*operands):
        for law_id, law in _MODE_LAWS[mode]:
            lhs, rhs = law(s, t, u, *_PARAMS, _SYM)
            pairs: list = []
            _collect_type_pairs(lhs, rhs, pairs)
            for e1, e2 in pairs:
                if e1 == e2:
                    continue
                mapping: dict = {}
                terms = (_rename(e1, mapping), _rename(e2, mapping))
                if terms not in seen:
                    seen[terms] = len(obligations)
                    obligations.append(_Obligation((law_id,) + terms, tuple(mapping), (s, t, u)))
                if graded:
                    uses.setdefault(((s0, t0, u0), law_id), []).append(
                        (seen[terms], tuple(mapping)))
    return tuple(obligations), compile_laws(tuple(ob.law for ob in obligations)), uses


def _reproduce(law, args, o: OmegaStructure):
    lhs, rhs = law(*args, o)
    if lhs == rhs:
        raise AssertionError("symbolic failure did not reproduce concretely")


def _concrete_witness(mode: str, ob: _Obligation, env: dict, o: OmegaStructure):
    def value(e):
        return tuple(map(value, e)) if isinstance(e, tuple) else env.get(e, 0)

    s, t, u = (_retype(x, value) for x in ob.origin)
    ps = tuple(map(value, _PARAMS))
    _reproduce(dict(_MODE_LAWS[mode])[ob.law[0]], (s, t, u, *ps), o)
    return (serialize(s), serialize(t), serialize(u)) + ps[:_MODE_PARAMS[mode]]


def _factored_report(mode: str, o: OmegaStructure, max_vertices: int, obligations,
                     tables: dict, first_witness_only: bool) -> LawReport:
    """Each violated obligation at its first point, in obligation order."""
    report = LawReport(kind=mode, details={"obligations": len(obligations)})
    for ob in obligations:
        found = first_violation((ob.law,), tables, o.size)
        if found is not None:
            report.add(ob.law[0], _concrete_witness(mode, ob, dict(zip(ob.var_names, found[1])), o))
            if first_witness_only:
                return report
    report.details["max_vertices"] = max_vertices
    return report


# ---------------------------------------------------------------------------
# Graded elements and the graded checker


@dataclass(frozen=True)
class GradedElement:
    """A tree together with a color of the parameter set."""

    tree: Node
    color: int


def _graded_node(gen: str, x: GradedElement, y: GradedElement, e: OmegaStructure):
    """The graded product ``gen`` of graded elements on non-leaf trees, colors
    and edge types in 0..size-1, over a structure with the four extended
    duplicial tables, whether or not it passes their laws."""
    if not (isinstance(x, GradedElement) and isinstance(y, GradedElement) and
            isinstance(x.tree, Node) and isinstance(y.tree, Node)):
        raise PreconditionError("graded products take GradedElements holding non-leaf trees")
    _require_operands(e, "edus", [], x.tree, y.tree, laws=False)
    _integers("color", x.color, y.color, low=0, high=e.size - 1)
    return GradedElement(*_node("graded", gen, x.tree, x.color, y.tree, y.color, e))


def graded_prec(x: GradedElement, y: GradedElement, e: OmegaStructure) -> GradedElement:
    return _graded_node("prec", x, y, e)


def graded_succ(x: GradedElement, y: GradedElement, e: OmegaStructure) -> GradedElement:
    return _graded_node("succ", x, y, e)


@lru_cache(maxsize=16)
def _graded_instances(max_vertices: int, x_size: int, size: int) -> int:
    """G1-G3 on every triple of tree-color pairs up to the vertex bound."""
    count = size * sum(trees.tree_count(n, x_size, size, "single")
                       for n in range(1, max_vertices + 1))
    return len(_MODE_LAWS["graded"]) * count ** 3


@lru_cache(maxsize=4)
def _graded_scan(max_vertices: int, x_size: int, size: int) -> list:
    """The tree-color pairs in scan order, each (tree, color, shape, text, its
    variable values as x, y and z).  Only a failing structure needs them."""
    elements = []
    for n in range(1, max_vertices + 1):
        for t in trees.enumerate_trees(n, x_size, size, "single"):
            types: list = []  # in the order that ``_retype`` names them
            _retype(t, lambda e: types.append(e) or e)
            shape, text = _shape(t), serialize(t)
            elements += [(t, c, shape, text, [dict(zip(_edge_names(p, False), types)) | {param: c}
                                              for p, param in zip("stu", _PARAMS)])
                         for c in range(size)]
    return elements


def _graded_report(o: OmegaStructure, x_size: int, max_vertices: int, obligations, uses,
                   tables: dict, first_witness_only: bool) -> LawReport:
    """G1-G3 on every triple of tree-color pairs, in order, each triple reported
    under every law that one of its uses of a violated obligation breaks."""
    instances = _graded_instances(max_vertices, x_size, o.size)
    if instances > LAW_BUDGET:
        raise ResourceBoundError(f"graded scan at max_vertices {max_vertices}: over budget")
    report = LawReport(kind="graded")
    elements = _graded_scan(max_vertices, x_size, o.size)
    laws = _MODE_LAWS["graded"]

    @lru_cache(maxsize=None)
    def bad(i):  # the points that violate obligation i
        found: list = []
        first_violation((obligations[i].law,), tables, o.size, found)
        return {args for _, args in found}

    for count, triple in enumerate(itertools.product(elements, repeat=3), 1):
        (xt, xc, xs, xtext, xv), (yt, yc, ys, ytext, yv), (zt, zc, zs, ztext, zv) = triple
        env = xv[0] | yv[1] | zv[2]
        for law_id, law in laws:
            if any(tuple(map(env.__getitem__, names)) in bad(i)
                   for i, names in uses.get(((xs, ys, zs), law_id), ())):
                if not report.witnesses:
                    _reproduce(law, (xt, yt, zt, xc, yc, zc), o)
                report.add(law_id, (xtext, xc, ytext, yc, ztext, zc))
                if first_witness_only:
                    report.details["instances"] = len(laws) * count
                    return report
    report.details.update(instances=instances, max_vertices=max_vertices)
    return report


def check_axioms(mode: str, o: OmegaStructure, x_size: int = 1,
                 max_vertices: int = 3,
                 first_witness_only: bool = False) -> LawReport:
    """Exhaustively check the defining equations of the given mode over all
    tree triples with at most ``max_vertices`` vertices each and all
    parameter tuples.

    ``two_param`` checks the three two-parameter laws on pair-typed trees,
    ``one_param`` the three one-parameter laws on single-typed trees, and
    ``graded`` the classical duplicial laws on tree-color pairs with the
    triangle-indexed products and arrow-composed colors.  The structure
    needs the tables of the mode's kind in ``_MODE_KINDS``; it may well fail
    its laws, which is what the report then exhibits.

    One compiled call over all obligations decides; only a failing structure
    is walked (``graded``: scanned) for its report.  Building the obligations
    or a failing scan past ``LAW_BUDGET`` law runs raises ``ResourceBoundError``.
    """
    if mode not in _MODE_LAWS:
        raise ValueError(f"unknown mode {mode!r}")
    tables = _tables_of(o, _MODE_KINDS[mode])
    _integers("max_vertices", max_vertices)
    _integers("x_size", x_size)
    obligations, (ops, check), uses = _plan(mode, max_vertices)
    if check(None, o.size, *[tables[op] for op in ops]) is None:
        counts = ({"instances": _graded_instances(max_vertices, x_size, o.size)}
                  if mode == "graded" else {"obligations": len(obligations)})
        return LawReport(kind=mode, details=counts | {"max_vertices": max_vertices})
    if mode == "graded":
        return _graded_report(o, x_size, max_vertices, obligations, uses, tables,
                              first_witness_only)
    return _factored_report(mode, o, max_vertices, obligations, tables, first_witness_only)


# ---------------------------------------------------------------------------
# Universal morphism out of the free algebra


class FreeAlgebraTarget:
    """The tree algebra itself as a target of the universal morphism."""

    def __init__(self, e: OmegaStructure):
        _require_kind(e, "edus")
        self.structure = e

    def prec(self, x, omega, y):
        return _prec1_raw(x, omega, y, self.structure)

    def succ(self, x, omega, y):
        return _succ1_raw(x, omega, y, self.structure)


def tree_generator(dec: str) -> Node:
    """The single-vertex tree on a decoration; the canonical embedding."""
    return Node(dec, None, None, None, None)


def _morphism_walk(f, target, t: Node, both):
    """The induced morphism by structural recursion: a single vertex maps
    to f(dec), a one-sided vertex to f(x) prec_b f(T2) or f(T1) succ_a f(x),
    and a two-sided vertex to ``both(f(T1), a, f(x), b, f(T2))``."""
    if t is None:
        raise PreconditionError("the morphism is defined on non-leaf trees")
    fx = f if callable(f) else f.__getitem__

    def go(node: Node):
        left, right = node.left, node.right
        if left is None and right is None:
            return fx(node.dec)
        if left is None:
            return target.prec(fx(node.dec), node.rt, go(right))
        if right is None:
            return target.succ(go(left), node.lt, fx(node.dec))
        return both(go(left), node.lt, fx(node.dec), node.rt, go(right))

    return go(t)


def free_morphism_eval(f, target, t: Node):
    """Evaluate the induced morphism on a tree by structural recursion:
    a single vertex maps to f(dec), and a vertex with subtrees maps to
    (f(T1) succ_a f(x)) prec_b f(T2) with the missing sides skipped."""
    return _morphism_walk(f, target, t, lambda l, a, x, b, r:
                          target.prec(target.succ(l, a, x), b, r))


def free_morphism_eval_alt(f, target, t: Node):
    """Same map computed with the other bracketing of the two-sided case,
    f(T1) succ_a (f(x) prec_b f(T2)); the two agree in any target whose
    middle law holds, which pins the uniqueness of the morphism."""
    return _morphism_walk(f, target, t, lambda l, a, x, b, r:
                          target.succ(l, a, target.prec(x, b, r)))
