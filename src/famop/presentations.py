"""Free binary operad terms, fixed-arity quotients, colored composition.

Terms are leaf-labeled binary trees whose internal vertices carry
generator symbols: a leaf is an integer label, a vertex is a tuple
``(gen, left, right)``.  In planar mode leaves read 1..n from left to
right; in labeled mode they carry an arbitrary bijective labeling.

A presentation (``omega.Presentation``) identifies, inside every term and
under every substitution of subtrees for pattern variables, all members of
each relation; the induced partition at a fixed arity is computed by
union-find over one-step rewrites, which is exact because the members of a
relation share one arity.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MixingConsistencyError, PreconditionError, ResourceBoundError
from .omega import (RELATIONS, Presentation, _checked_leaves, _digits, _freeze_table, _integers,
                    eval_term, first_violation, law_term, monomials, serialize_term, substitute,
                    tables_by_op, term_arity, term_leaves)
from .trees import Bracketed

Term = object  # int leaf label | (gen, Term, Term)


def parse_term(text: str) -> Term:
    """Invert ``serialize_term``; raises ParseError with a position."""
    src = Bracketed(text)

    def term(part) -> Term:
        if type(part) is int:
            if not _digits(src.tokens[part]):
                raise src.error(part, f"bad leaf label {src.tokens[part]!r}")
            return int(src.tokens[part])
        gen, left, right = src.fields(part, 3)
        return (src.word(gen, "generator"), term(left), term(right))

    return term(src.item)


def preset(name: str) -> Presentation:
    """The registry entry ``omega.RELATIONS[name]``."""
    if name not in RELATIONS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(RELATIONS)}")
    return RELATIONS[name]


# ---------------------------------------------------------------------------
# Enumeration


def _shapes(n_leaves: int, gens) -> list[Term]:
    """Planar terms with leaves tagged 1..n left to right."""

    def rec(labels: tuple) -> list[Term]:
        if len(labels) == 1:
            return [labels[0]]
        out = []
        for i in range(1, len(labels)):
            for left in rec(labels[:i]):
                for right in rec(labels[i:]):
                    for g in gens:
                        out.append((g, left, right))
        return out

    return rec(tuple(range(1, n_leaves + 1)))


def enumerate_terms(p: Presentation, arity: int) -> list[Term]:
    """Complete canonical list of terms at one arity.  A planar shape and a
    leaf permutation fix a labeled term, so no term repeats."""
    _integers("arity", arity)
    limit = 6 if p.mode == "planar" else 5
    if arity > limit:
        raise ResourceBoundError(f"arity {arity} exceeds the {p.mode} bound {limit}")
    planar = _shapes(arity, p.generators)
    if p.mode == "planar":
        return sorted(planar, key=serialize_term)
    out = []
    for t in planar:
        positions = term_leaves(t)
        for perm in itertools.permutations(range(1, arity + 1)):
            out.append(substitute(t, dict(zip(positions, perm))))
    return sorted(out, key=serialize_term)


# ---------------------------------------------------------------------------
# Congruence closure at fixed arity


def _match(pattern: Term, t: Term, binding: dict) -> bool:
    if isinstance(pattern, int):
        binding[pattern] = t
        return True
    if isinstance(t, int) or t[0] != pattern[0]:
        return False
    return _match(pattern[1], t[1], binding) and _match(pattern[2], t[2], binding)


def _swaps(relations) -> list:
    """Each relation member with the members of its relation that share its
    leaf set: only those swaps can join two terms of one arity."""
    return [(member, [other for other in terms if other is not member
                      and set(term_leaves(other)) == set(term_leaves(member))])
            for terms in map(monomials, relations) for member in terms]


def _rewrites(t: Term, swaps) -> list[Term]:
    """All one-step rewrites of ``t`` by any relation member swap, at any
    subterm position."""
    out = []
    if isinstance(t, int):
        return out
    for member, others in swaps:
        binding: dict = {}
        if _match(member, t, binding):
            for other in others:
                out.append(substitute(other, binding))
    for rewritten in _rewrites(t[1], swaps):
        out.append((t[0], rewritten, t[2]))
    for rewritten in _rewrites(t[2], swaps):
        out.append((t[0], t[1], rewritten))
    return out


def partition_terms(terms, relations) -> list[list[Term]]:
    """Connected components of the one-step rewrite graph on ``terms``,
    each sorted, the list sorted by class representative;
    ``PreconditionError`` unless ``terms`` is closed under the rewrites."""
    index = {t: i for i, t in enumerate(terms)}
    parent = list(range(len(terms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    swaps = _swaps(relations)
    for t in terms:
        i = index[t]
        for r in _rewrites(t, swaps):
            j = index.get(r)
            if j is None:
                raise PreconditionError(f"the terms are not closed under the relations: "
                                        f"{serialize_term(t)} rewrites to {serialize_term(r)}")
            union(i, j)
    groups: dict = {}
    for t in terms:
        groups.setdefault(find(index[t]), []).append(t)
    classes = [sorted(g, key=serialize_term) for g in groups.values()]
    return sorted(classes, key=lambda c: serialize_term(c[0]))


def quotient_classes(p: Presentation, arity: int) -> list[list[Term]]:
    """The partition of all terms at one arity under the presented
    identifications; class representatives are the least serializations."""
    return partition_terms(enumerate_terms(p, arity), p.relations)


def compose_terms(x: Term, a: int, y: Term) -> Term:
    """Partial composition: plug ``y`` into the leaf of ``x`` labeled ``a``,
    renumbering so the result reads 1..(n+m-1)."""
    x_leaves, y_leaves = _checked_leaves(x, "term"), _checked_leaves(y, "term")
    _integers("position", a, high=len(x_leaves))
    y_shifted = substitute(y, {leaf: leaf + a - 1 for leaf in y_leaves})
    return substitute(x, {leaf: leaf if leaf < a else y_shifted if leaf == a
                          else leaf + len(y_leaves) - 1 for leaf in x_leaves})


# ---------------------------------------------------------------------------
# Colored terms and transforms


@dataclass(frozen=True)
class ColoredTerm:
    term: Term
    input_colors: tuple
    output_color: int

    def __post_init__(self):
        object.__setattr__(self, "input_colors", tuple(self.input_colors))
        _integers("color", *self.input_colors, self.output_color, low=0)
        if len(self.input_colors) != len(_checked_leaves(self.term, "term")):
            raise PreconditionError("one input color per leaf required")


def colored_compose(x: ColoredTerm, a: int, y: ColoredTerm) -> ColoredTerm | None:
    """Compose when the output color of ``y`` matches input ``a`` of ``x``;
    otherwise the zero of the colored setting, represented as None."""
    _integers("position", a, high=len(x.input_colors))
    if y.output_color != x.input_colors[a - 1]:
        return None
    colors = x.input_colors[:a - 1] + y.input_colors + x.input_colors[a:]
    return ColoredTerm(compose_terms(x.term, a, y.term), colors, x.output_color)


@dataclass
class ColoredFamily:
    """Finite bookkeeping of colored components: (arity, input colors,
    output color) -> a frozenset of element names."""

    colors: tuple
    components: dict

    def component(self, arity: int, ins, out) -> frozenset:
        return self.components.get((arity, tuple(ins), out), frozenset())

    def total_at_arity(self, arity: int) -> int:
        return sum(len(v) for (n, _, _), v in self.components.items() if n == arity)


def uniformize(base: dict, colors) -> ColoredFamily:
    """Promote a monochromatic family (arity -> elements) to a colored one
    with every color component a copy of the base component."""
    colors = tuple(colors)
    comps = {}
    for arity, elems in base.items():
        for ins in itertools.product(colors, repeat=arity):
            for out in colors:
                comps[(arity, ins, out)] = frozenset(elems)
    return ColoredFamily(colors, comps)


def color_change(family: ColoredFamily, kappa: dict, new_colors) -> ColoredFamily:
    """Pull back along kappa: component at (ins, out) is the source
    component at (kappa(ins), kappa(out))."""
    new_colors = tuple(new_colors)
    arities = {n for (n, _, _) in family.components}
    comps = {}
    for n in arities:
        for ins in itertools.product(new_colors, repeat=n):
            for out in new_colors:
                comps[(n, ins, out)] = family.component(
                    n, tuple(kappa[c] for c in ins), kappa[out])
    return ColoredFamily(new_colors, comps)


def forget(family: ColoredFamily) -> dict:
    """Index the arity-n component by all (input colors, output color)
    pairs; returned as arity -> list of (ins, out, elements)."""
    out: dict = {}
    for (n, ins, c), elems in sorted(family.components.items()):
        out.setdefault(n, []).append((ins, c, elems))
    return out


# ---------------------------------------------------------------------------
# Color-mixing membership


@dataclass
class MixingResult:
    members: list
    non_members: list
    consistent: bool
    classes: list


def _carrier_size(p: Presentation, omega_algebra: dict) -> int:
    """Validate the generator tables and return their common size."""
    for g in p.generators:
        if g not in omega_algebra:
            raise ValueError(f"no table for generator {g!r}")
    if not all(isinstance(tab, (list, tuple)) for tab in omega_algebra.values()):
        raise ValueError("each generator table must be a list of rows")
    sizes = {len(tab) for tab in omega_algebra.values()}
    if len(sizes) != 1:
        raise ValueError("all generator tables must share one carrier size")
    size = sizes.pop()
    for tab in omega_algebra.values():
        _freeze_table(tab, size)
    return size


def _check_consistency(classes, tables: dict, size: int):
    """Raise for the first class, in class order, whose terms do not all
    evaluate alike under every coloring."""
    for cls in classes:
        rep = law_term(cls[0])
        laws = tuple((i, rep, law_term(t)) for i, t in enumerate(cls[1:]))
        if first_violation(laws, tables, size) is not None:
            raise MixingConsistencyError(serialize_term(cls[0]))


def mixing_filter(p: Presentation, omega_algebra: dict, arity: int,
                  coloring, output: int) -> MixingResult:
    """Partition the quotient classes at one arity into members and
    non-members of the color-mixing suboperad at (coloring, output):
    a class belongs when its terms evaluate to the output color.

    ``omega_algebra`` maps each generator to a square table over the color
    set.  Evaluation must be constant on every class for every coloring,
    otherwise the color set is not an algebra for this presentation and a
    MixingConsistencyError names the offending class.
    """
    size = _carrier_size(p, omega_algebra)
    coloring = tuple(coloring)
    if len(coloring) != arity:
        raise ValueError("one input color per leaf required")
    _integers("input colors", *coloring, low=0, high=size - 1)
    _integers("the output color", output, low=0, high=size - 1)
    classes = quotient_classes(p, arity)
    _check_consistency(classes, omega_algebra, size)
    env = dict(zip(range(1, arity + 1), coloring))
    members, non_members = [], []
    for cls in classes:
        value = eval_term(cls[0], omega_algebra, env)
        (members if value == output else non_members).append(cls[0])
    return MixingResult(members, non_members, True, classes)


def mixing_census(p: Presentation, omega_algebra: dict, arity: int) -> dict:
    """Per-class count of (coloring, output) pairs that admit the class.

    Once evaluation is constant on the classes, every coloring admits each
    class at exactly one output color, so each count is size ** arity.
    """
    size = _carrier_size(p, omega_algebra)
    classes = quotient_classes(p, arity)
    _check_consistency(classes, omega_algebra, size)
    counts = [(serialize_term(cls[0]), size ** arity) for cls in classes]
    return {"classes": len(classes), "consistent": True, "member_counts": counts}


def omega_algebra_from_structure(p: Presentation, structure) -> dict:
    """The table of a parameter structure that each generator reads, as
    ``omega.GENERATOR_OPS`` assigns it: prec/succ the arrows, rhd/mul the
    magma product."""
    return tables_by_op(structure, p.generators)
