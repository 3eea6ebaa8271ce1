"""Free binary operad terms, fixed-arity quotients, colored composition.

Terms are leaf-labeled binary trees whose internal vertices carry
generator symbols: a leaf is an integer label, a vertex is a tuple
``(gen, left, right)``.  In planar mode leaves read 1..n from left to
right; in labeled mode they carry an arbitrary bijective labeling.

A presentation identifies, inside every term and under every substitution
of subtrees for pattern variables, the members of each relation class;
the induced partition at a fixed arity is computed by union-find over
one-step rewrites, which is exact for arity-homogeneous relations.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .errors import (MixingConsistencyError, ParseError, PreconditionError,
                     ResourceBoundError)
from .omega import (RELATIONS, _freeze_table, _json_fields, eval_term,
                    first_violation, monomials, tables_by_op)
from .trees import tokenize

Term = object  # int leaf label | (gen, Term, Term)


def term_arity(t: Term) -> int:
    if isinstance(t, int):
        return 1
    return term_arity(t[1]) + term_arity(t[2])


def term_leaves(t: Term) -> list[int]:
    if isinstance(t, int):
        return [t]
    return term_leaves(t[1]) + term_leaves(t[2])


def serialize_term(t: Term) -> str:
    if isinstance(t, int):
        return str(t)
    return f"({t[0]} {serialize_term(t[1])} {serialize_term(t[2])})"


def parse_term(text: str) -> Term:
    tokens = tokenize(text)
    pos = 0

    def rec() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of term", len(text))
        tok, at = tokens[pos]
        if tok == "(":
            pos += 1
            if pos >= len(tokens):
                raise ParseError("missing generator", len(text))
            gen, gat = tokens[pos]
            if gen in "()":
                raise ParseError(f"bad generator {gen!r}", gat)
            pos += 1
            left = rec()
            right = rec()
            if pos >= len(tokens) or tokens[pos][0] != ")":
                raise ParseError("expected ')'", tokens[pos][1] if pos < len(tokens) else len(text))
            pos += 1
            return (gen, left, right)
        if tok == ")":
            raise ParseError("unexpected ')'", at)
        pos += 1
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"bad leaf label {tok!r}", at) from None

    out = rec()
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos][0]!r}", tokens[pos][1])
    return out


@dataclass
class Presentation:
    """Binary generators plus relation classes of equal-arity terms."""

    generators: list
    mode: str  # "planar" | "labeled"
    relations: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("planar", "labeled"):
            raise ValueError("mode must be 'planar' or 'labeled'")
        for cls in self.relations:
            arities = {term_arity(t) for t in cls}
            if len(arities) > 1:
                warnings.warn("non-homogeneous relation class: the fixed-arity "
                              "closure may be a proper refinement of the set "
                              "operadic equivalence", stacklevel=2)

    def to_json(self) -> dict:
        return {"generators": list(self.generators), "mode": self.mode,
                "relations": [[serialize_term(t) for t in cls]
                              for cls in self.relations]}

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        generators, mode, relations = _json_fields(
            data, "presentation", "generators", "mode", "relations")
        if not (isinstance(relations, list) and
                all(isinstance(v, list) for v in (generators, *relations)) and
                all(isinstance(t, str) for cls_ in relations for t in cls_)):
            raise PreconditionError("presentation generators and relation "
                                    "classes must be lists, terms strings")
        return cls(list(generators), mode,
                   [[parse_term(t) for t in cls_] for cls_ in relations])


def preset(name: str) -> Presentation:
    """The presentation of ``omega.RELATIONS[name]``: one class per
    relation, its monomials with the variables x, y, z as leaves 1, 2, 3."""
    if name not in RELATIONS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(RELATIONS)}")
    entry = RELATIONS[name]
    leaves = {0: 1, 1: 2, 2: 3}
    return Presentation(list(entry.generators), entry.mode,
                        [[_relabel(t, leaves) for t in monomials(relation)]
                         for relation in entry.relations])


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


def _relabel(t: Term, mapping: dict) -> Term:
    if isinstance(t, int):
        return mapping[t]
    return (t[0], _relabel(t[1], mapping), _relabel(t[2], mapping))


def enumerate_terms(p: Presentation, arity: int) -> list[Term]:
    """Complete canonical list of terms at one arity."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
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
            mapping = dict(zip(positions, perm))
            out.append(_relabel(t, mapping))
    return sorted(set(out), key=serialize_term)


# ---------------------------------------------------------------------------
# Congruence closure at fixed arity


def _match(pattern: Term, t: Term, binding: dict) -> bool:
    if isinstance(pattern, int):
        binding[pattern] = t
        return True
    if isinstance(t, int) or t[0] != pattern[0]:
        return False
    return _match(pattern[1], t[1], binding) and _match(pattern[2], t[2], binding)


def _subst(pattern: Term, binding: dict) -> Term:
    if isinstance(pattern, int):
        return binding[pattern]
    return (pattern[0], _subst(pattern[1], binding), _subst(pattern[2], binding))


def _rewrites(t: Term, relations) -> list[Term]:
    """All one-step rewrites of ``t`` by any relation member swap, at any
    subterm position."""
    out = []
    if isinstance(t, int):
        return out
    for cls in relations:
        for member in cls:
            binding: dict = {}
            if _match(member, t, binding):
                for other in cls:
                    if other is not member:
                        out.append(_subst(other, binding))
    for rewritten in _rewrites(t[1], relations):
        out.append((t[0], rewritten, t[2]))
    for rewritten in _rewrites(t[2], relations):
        out.append((t[0], t[1], rewritten))
    return out


def partition_terms(terms, relations) -> list[list[Term]]:
    """Connected components of the one-step rewrite graph on ``terms``,
    each sorted, the list sorted by class representative."""
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

    for t in terms:
        i = index[t]
        for r in _rewrites(t, relations):
            j = index.get(r)
            if j is None:
                raise AssertionError(f"rewrite left the arity slice: {serialize_term(r)}")
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
    if a not in term_leaves(x):
        raise ValueError(f"no leaf labeled {a}")
    m = term_arity(y)
    y_shifted = _relabel(y, {leaf: leaf + a - 1 for leaf in term_leaves(y)})
    return _relabel(x, {leaf: leaf if leaf < a else y_shifted if leaf == a else leaf + m - 1
                        for leaf in term_leaves(x)})


# ---------------------------------------------------------------------------
# Colored terms and transforms


@dataclass(frozen=True)
class ColoredTerm:
    term: Term
    input_colors: tuple
    output_color: int

    def __post_init__(self):
        object.__setattr__(self, "input_colors", tuple(self.input_colors))
        if len(self.input_colors) != term_arity(self.term):
            raise ValueError("one input color per leaf required")


def colored_compose(x: ColoredTerm, a: int, y: ColoredTerm) -> ColoredTerm | None:
    """Compose when the output color of ``y`` matches input ``a`` of ``x``;
    otherwise the zero of the colored setting, represented as None."""
    if not 1 <= a <= len(x.input_colors):
        raise ValueError(f"position {a} out of range")
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


def _check_consistency(classes, tables: dict, size: int, arity: int):
    """Raise for the first class, in class order, whose terms do not all
    evaluate alike under every coloring."""
    to_vars = {leaf: leaf - 1 for leaf in range(1, arity + 1)}
    for cls in classes:
        rep = _relabel(cls[0], to_vars)
        laws = tuple((i, rep, _relabel(t, to_vars)) for i, t in enumerate(cls[1:]))
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
    if not all(isinstance(c, int) and 0 <= c < size for c in coloring):
        raise ValueError(f"input colors must lie in 0..{size - 1}")
    classes = quotient_classes(p, arity)
    _check_consistency(classes, omega_algebra, size, arity)
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
    _check_consistency(classes, omega_algebra, size, arity)
    counts = [(serialize_term(cls[0]), size ** arity) for cls in classes]
    return {"classes": len(classes), "consistent": True, "member_counts": counts}


def omega_algebra_from_structure(p: Presentation, structure) -> dict:
    """The table of a parameter structure that each generator reads, as
    ``omega.GENERATOR_OPS`` assigns it: prec/succ the arrows, rhd/mul the
    magma product."""
    return tables_by_op(structure, p.generators)
