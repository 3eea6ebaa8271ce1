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
from .omega import (GENERATOR_OPS, RELATIONS, OmegaStructure, first_violation,
                    passes, tables_by_op)
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
    edus = kind == "edus"
    if not isinstance(o, OmegaStructure) or edus and not o.has_triangles:
        raise PreconditionError(f"an OmegaStructure{' with triangle tables' * edus} is required")
    if not passes(o, kind):
        raise PreconditionError(f"parameter structure must satisfy the "
                                f"{'extended ' * edus}duplicial laws")


def _require_operands(o: OmegaStructure, kind: str, edge, *ts):
    """Non-leaf operands ``ts``, a structure of ``kind``, and the new edge's type
    ``edge`` and every edge type of ``ts`` of the product's flavor (an int pair
    for ``duplicial``, an int for ``edus``) with values in 0..size-1."""
    if any(t is None for t in ts):
        raise PreconditionError("products are defined on non-leaf trees only")
    _require_kind(o, kind)
    pair, ok = kind == "duplicial", range(o.size)
    types, stack = [edge], list(ts)
    while stack:
        t = stack.pop()
        types += [e for e in (t.lt, t.rt) if e is not None]
        stack += [c for c in (t.left, t.right) if c is not None]
    for e in types:
        values = e if pair and isinstance(e, tuple) and len(e) == 2 else (e,)
        if isinstance(e, tuple) != pair or not all(type(v) is int and v in ok for v in values):
            raise PreconditionError(f"edge type {e} not an int{' pair' * pair} in range({o.size})")


def prec2(s: Node, t: Node, alpha: int, beta: int, o: OmegaStructure) -> Node:
    """Graft t at the rightmost leaf of s; new edge typed (alpha, beta),
    s edges (w, u) -> (w, u <- beta), t edges (w, u) -> (alpha <- w, u)."""
    _require_operands(o, "duplicial", (alpha, beta), s, t)
    return _prec2_raw(s, t, alpha, beta, o)


def succ2(s: Node, t: Node, alpha: int, beta: int, o: OmegaStructure) -> Node:
    """Graft s at the leftmost leaf of t; new edge typed (alpha, beta),
    t edges (w, u) -> (alpha -> w, u), s edges (w, u) -> (w, u -> beta)."""
    _require_operands(o, "duplicial", (alpha, beta), s, t)
    return _succ2_raw(s, t, alpha, beta, o)


def prec1(t: Node, u: Node, omega: int, e: OmegaStructure) -> Node:
    """One-parameter left product on single-typed trees over an extended
    duplicial semigroup."""
    _require_operands(e, "edus", omega, t, u)
    return _prec1_raw(t, omega, u, e)


def succ1(t: Node, u: Node, omega: int, e: OmegaStructure) -> Node:
    """One-parameter right product on single-typed trees."""
    _require_operands(e, "edus", omega, t, u)
    return _succ1_raw(t, omega, u, e)


# ---------------------------------------------------------------------------
# Law tables for the checkers


_PRODUCTS = {"two_param": {"prec": _prec2_raw, "succ": _succ2_raw},
             "graded": {"prec": lambda s, t, p, q, ops: _prec1_raw(s, ops.lt(p, q), t, ops),
                        "succ": lambda s, t, p, q, ops: _succ1_raw(s, ops.rt(p, q), t, ops)}}


def _tree_law(relation, mode: str):
    """The law of one duplicial relation on typed trees, in ``two_param``
    or ``graded`` mode.

    A variable is a tree with its parameter; a node whose operands carry p
    and q runs the mode's product at (p, q) and carries its grade, the
    generator's arrow at (p, q).  A graded side is its tree hung below a
    root edge typed by its grade, so grades compare as edge types do."""
    ((lhs, _),), ((rhs, _),) = relation

    def law(s, t, u, a, b, c, ops):
        leaves = ((s, a), (t, b), (u, c))

        def value(term):
            if isinstance(term, int):
                return leaves[term]
            gen, left, right = term
            (x, p), (y, q) = value(left), value(right)
            return (_PRODUCTS[mode][gen](x, y, p, q, ops),
                    getattr(ops, GENERATOR_OPS[gen])(p, q))

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
_PARAMS = ("pa", "pb", "pc")  # the symbolic parameters of x, y and z


# ---------------------------------------------------------------------------
# Symbolic obligations


@dataclass(frozen=True)
class _Obligation:
    law: tuple  # (law id, lhs, rhs) as omega terms
    var_names: tuple  # the symbolic name of each term variable
    origin: tuple  # (s_sym, t_sym, u_sym, param names)
    uses: list  # graded only: every (shapes, law id, var_names)


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
def _obligations(mode: str, max_vertices: int) -> tuple[_Obligation, ...]:
    """The distinct per-edge type equations of the mode's laws over all
    tree triples up to the vertex bound.  Decorations never enter a type
    equation, so the shapes carry a single one.  A graded obligation also
    keeps every use, as the graded report needs them all."""
    pair, graded = mode == "two_param", mode == "graded"
    shapes = []
    for n in range(1, max_vertices + 1):
        shapes.extend(trees.enumerate_trees(n, 1, 1, "pair" if pair else "single"))
    if len(_MODE_LAWS[mode]) * len(shapes) ** 3 > LAW_BUDGET:
        raise ResourceBoundError(f"{mode} obligations at max_vertices {max_vertices}: over budget")

    def fresh(t, prefix: str):
        """``t`` with its k-th edge typed by the variable ``{prefix}{k}``,
        or by the pair of ``{prefix}{k}f`` and ``{prefix}{k}s``."""
        names = ((f"{prefix}{k}f", f"{prefix}{k}s") if pair else f"{prefix}{k}"
                 for k in itertools.count())
        return _retype(t, lambda _: next(names))

    seen: dict = {}  # (lhs, rhs) -> its obligation
    for s0 in shapes:
        s = fresh(s0, "s")
        for t0 in shapes:
            t = fresh(t0, "t")
            for u0 in shapes:
                u = fresh(u0, "u")
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
                            seen[terms] = _Obligation(
                                (law_id,) + terms, tuple(mapping), (s, t, u, _PARAMS), [])
                        if graded:
                            seen[terms].uses.append(((s0, t0, u0), law_id, tuple(mapping)))
    return tuple(seen.values())


def _reproduce(law, args, o: OmegaStructure):
    lhs, rhs = law(*args, o)
    if lhs == rhs:
        raise AssertionError("symbolic failure did not reproduce concretely")


def _concrete_witness(mode: str, ob: _Obligation, env: dict, o: OmegaStructure):
    def value(e):
        return tuple(map(value, e)) if isinstance(e, tuple) else env.get(e, 0)

    *symbolic, pnames = ob.origin
    s, t, u = (_retype(x, value) for x in symbolic)
    ps = tuple(map(value, pnames))
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


def graded_prec(x: GradedElement, y: GradedElement, e: OmegaStructure) -> GradedElement:
    return GradedElement(_prec1_raw(x.tree, e.lt(x.color, y.color), y.tree, e),
                         e.la(x.color, y.color))


def graded_succ(x: GradedElement, y: GradedElement, e: OmegaStructure) -> GradedElement:
    return GradedElement(_succ1_raw(x.tree, e.rt(x.color, y.color), y.tree, e),
                         e.ra(x.color, y.color))


@lru_cache(maxsize=16)
def _graded_instances(max_vertices: int, x_size: int, size: int) -> int:
    """G1-G3 on every triple of tree-color pairs up to the vertex bound."""
    count = size * sum(trees.tree_count(n, x_size, size, "single")
                       for n in range(1, max_vertices + 1))
    return len(_MODE_LAWS["graded"]) * count ** 3


@lru_cache(maxsize=4)
def _graded_scan(max_vertices: int, x_size: int, size: int) -> tuple:
    """The tree-color pairs in scan order, each (tree, color, shape, its variable values
    as x, y and z), and the graded uses by (shapes, law id): (obligation index, names).
    Only a failing structure needs them."""
    elements = []
    for n in range(1, max_vertices + 1):
        for t in trees.enumerate_trees(n, x_size, size, "single"):
            types: list = []  # in the order that ``_retype`` names them
            _retype(t, lambda e: types.append(e) or e)
            elements += [(t, c, _shape(t), [{f"{p}{k}": v for k, v in enumerate(types)}
                                            | {param: c} for p, param in zip("stu", _PARAMS)])
                         for c in range(size)]
    uses: dict = {}
    for i, ob in enumerate(_obligations("graded", max_vertices)):
        for shapes, law_id, names in ob.uses:
            uses.setdefault((tuple(map(_shape, shapes)), law_id), []).append((i, names))
    return elements, uses


def _graded_report(o: OmegaStructure, x_size: int, max_vertices: int, obligations,
                   tables: dict, first_witness_only: bool) -> LawReport:
    """G1-G3 on every triple of tree-color pairs, in order, each triple reported
    under every law that one of its uses of a violated obligation breaks."""
    instances = _graded_instances(max_vertices, x_size, o.size)
    if instances > LAW_BUDGET:
        raise ResourceBoundError(f"graded scan at max_vertices {max_vertices}: over budget")
    report = LawReport(kind="graded")
    elements, uses = _graded_scan(max_vertices, x_size, o.size)
    laws = _MODE_LAWS["graded"]

    @lru_cache(maxsize=None)
    def bad(i):  # the points that violate obligation i
        found: list = []
        first_violation((obligations[i].law,), tables, o.size, found)
        return {args for _, args in found}

    for count, ((xt, xc, xs, xv), (yt, yc, ys, yv), (zt, zc, zs, zv)) in enumerate(
            itertools.product(elements, repeat=3), 1):
        env = xv[0] | yv[1] | zv[2]
        for law_id, law in laws:
            if any(tuple(map(env.__getitem__, names)) in bad(i)
                   for i, names in uses.get(((xs, ys, zs), law_id), ())):
                if not report.witnesses:
                    _reproduce(law, (xt, yt, zt, xc, yc, zc), o)
                report.add(law_id, (serialize(xt), xc, serialize(yt), yc, serialize(zt), zc))
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
    only needs the tables the mode reads; it may well fail its own laws,
    which is what the report then exhibits.

    One compiled call over all obligations decides; only a failing structure
    is walked (``graded``: scanned) for its report.  Building the obligations
    or a failing scan past ``LAW_BUDGET`` law runs raises ``ResourceBoundError``.
    """
    if not isinstance(o, OmegaStructure):
        raise PreconditionError("an OmegaStructure is required")
    if mode in ("one_param", "graded") and not o.has_triangles:
        raise PreconditionError(f"mode {mode!r} requires triangle tables")
    if mode not in _MODE_LAWS:
        raise ValueError(f"unknown mode {mode!r}")
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if x_size < 1:
        raise ValueError("x_size must be at least 1")
    obligations = _obligations(mode, max_vertices)
    tables = tables_by_op(o, ("la", "ra", "lt", "rt") if o.has_triangles else ("la", "ra"))
    if first_violation(tuple(ob.law for ob in obligations), tables, o.size) is None:
        counts = ({"instances": _graded_instances(max_vertices, x_size, o.size)}
                  if mode == "graded" else {"obligations": len(obligations)})
        return LawReport(kind=mode, details=counts | {"max_vertices": max_vertices})
    if mode == "graded":
        return _graded_report(o, x_size, max_vertices, obligations, tables, first_witness_only)
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
