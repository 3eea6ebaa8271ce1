"""Finite parameter structures and their defining laws.

A parameter structure is a finite set ``{0..w-1}`` carrying binary
operation tables: two arrows (``la``/``ra``, written ``<-``/``->``) for
diassociative and duplicial semigroups, optionally two triangles
(``lt``/``rt``) for extended duplicial semigroups, or a single table for
plain magmas (associative, twist-associative, NAP+NAP', perm).  All their
laws but the triangle laws come from the presented relations ``RELATIONS``.

Everything is exact and exhaustive: laws are tuple terms compiled to
straight-line checks over all triples of the carrier, and enumeration
backtracks over the table cells with the same checks.  Two symbolic infinite
models are provided as well: twisted monomials and multisets of positive
integers.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError, ResourceBoundError
from .report import LawReport

Table = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Carriers


def _freeze_table(rows, size: int) -> Table:
    if not isinstance(rows, (list, tuple)) or len(rows) != size:
        raise PreconditionError(f"table must be {size}x{size}")
    entries = []
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != size:
            raise PreconditionError(f"table must be {size}x{size}")
        entries += row
    _integers("table entry", *entries, low=0, high=size - 1)
    return tuple(map(tuple, rows))


def _integers(what: str, *values, low=1, high=None) -> None:
    """The one check of every integer argument: ``PreconditionError`` unless
    each value is an ``int``, not a ``bool``, in ``low..high`` (``None``: open)."""
    for v in values:
        if type(v) is not int:
            raise PreconditionError(f"{what} {v!r} is not an integer")
        if low is not None and v < low or high is not None and v > high:
            span = f"be at least {low}" if high is None else f"lie in {low}..{high}"
            raise PreconditionError(f"{what} must {span}, not {v}")


def _json_fields(data, what: str, *keys) -> list:
    """The named fields of the JSON object of a ``what``."""
    if not isinstance(data, dict):
        raise PreconditionError(
            f"a {what} must be a JSON object, not {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise PreconditionError(f"{what} JSON lacks {', '.join(missing)}")
    return [data[key] for key in keys]


def _digits(text: str) -> bool:
    """Numbers in the text grammars and the CLI are ASCII digits only
    (``int`` alone would also read ``+2``, ``1_0`` and the digits of other
    scripts)."""
    return text.isascii() and text.isdigit()


def _word(text) -> bool:
    """Whether ``text`` is one word of the tree and term grammars: no space, no bracket."""
    return isinstance(text, str) and text.split() == [text] and not {"(", ")"} & set(text)


@dataclass(frozen=True)
class OmegaStructure:
    """Carrier {0..size-1} with arrow tables and optional triangle tables."""

    size: int
    left_arrow: Table
    right_arrow: Table
    left_tri: Table | None = None
    right_tri: Table | None = None

    def __post_init__(self):
        _integers("structure size", self.size)
        object.__setattr__(self, "left_arrow", _freeze_table(self.left_arrow, self.size))
        object.__setattr__(self, "right_arrow", _freeze_table(self.right_arrow, self.size))
        if (self.left_tri is None) != (self.right_tri is None):
            raise PreconditionError("triangle tables must be both present or both absent")
        if self.left_tri is not None:
            object.__setattr__(self, "left_tri", _freeze_table(self.left_tri, self.size))
            object.__setattr__(self, "right_tri", _freeze_table(self.right_tri, self.size))

    @property
    def has_triangles(self) -> bool:
        return self.left_tri is not None

    def la(self, a: int, b: int) -> int:
        return self.left_arrow[a][b]

    def ra(self, a: int, b: int) -> int:
        return self.right_arrow[a][b]

    def lt(self, a: int, b: int) -> int:
        return self.left_tri[a][b]

    def rt(self, a: int, b: int) -> int:
        return self.right_tri[a][b]

    def flat(self) -> tuple[int, ...]:
        out = []
        for t in (self.left_arrow, self.right_arrow, self.left_tri, self.right_tri):
            if t is not None:
                out.extend(v for row in t for v in row)
        return tuple(out)

    def to_json(self) -> dict:
        out = {"size": self.size,
               "left": [list(r) for r in self.left_arrow],
               "right": [list(r) for r in self.right_arrow]}
        if self.has_triangles:
            out["ltri"] = [list(r) for r in self.left_tri]
            out["rtri"] = [list(r) for r in self.right_tri]
        return out

    @classmethod
    def from_json(cls, data: dict) -> "OmegaStructure":
        return cls(*_json_fields(data, "structure", "size", "left", "right"),
                   data.get("ltri"), data.get("rtri"))


@dataclass(frozen=True)
class Magma:
    """Carrier {0..size-1} with a single product table."""

    size: int
    table: Table

    def __post_init__(self):
        _integers("structure size", self.size)
        object.__setattr__(self, "table", _freeze_table(self.table, self.size))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def flat(self) -> tuple[int, ...]:
        return tuple(v for row in self.table for v in row)

    def to_json(self) -> dict:
        return {"size": self.size, "table": [list(r) for r in self.table]}

    @classmethod
    def from_json(cls, data: dict) -> "Magma":
        return cls(*_json_fields(data, "structure", "size", "table"))


def _trusted(cls, *fields):
    """``cls`` on tables the search built, unchecked: the checks are for input."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(obj, name, value)  # as __init__ does, keeping fast attributes
    return obj


def ds_projections(size: int) -> OmegaStructure:
    """Arrows given by projections: a <- b = a and a -> b = b."""
    _integers("size", size)
    left = tuple(tuple(a for _ in range(size)) for a in range(size))
    right = tuple(tuple(b for b in range(size)) for _ in range(size))
    return OmegaStructure(size, left, right)


def from_semigroup(m: Magma) -> OmegaStructure:
    """Use one magma product for both arrows."""
    return OmegaStructure(m.size, m.table, m.table)


# ---------------------------------------------------------------------------
# Presentations.  A term is a leaf label 1..n or a tuple (gen, l, r).


def term_leaves(t) -> list[int]:
    if not isinstance(t, tuple):
        return [t]
    return term_leaves(t[1]) + term_leaves(t[2])


def term_arity(t) -> int:
    return len(term_leaves(t))


def _triples(t) -> bool:
    """Whether every node of ``t`` is a triple ``(gen, left, right)`` with
    ``gen`` a string."""
    return not isinstance(t, tuple) or (len(t) == 3 and isinstance(t[0], str) and
                                        _triples(t[1]) and _triples(t[2]))


def _checked_leaves(t, what: str) -> list[int]:
    """The leaves of ``t``; ``PreconditionError`` unless every node is a triple
    ``(gen, left, right)`` and the leaves are the ints 1..n, once each."""
    if not _triples(t):
        raise PreconditionError(f"{what} {t!r} has a node that is not a triple "
                                "(generator, left, right)")
    leaves = term_leaves(t)
    _integers("leaf label", *leaves)
    if sorted(leaves) != list(range(1, len(leaves) + 1)):
        raise PreconditionError(f"{what} {serialize_term(t)} does not carry the leaves "
                                f"1..{len(leaves)} once each")
    return leaves


def substitute(term, leaves, ops=None):
    """``term`` with each leaf v replaced by ``leaves[v]`` and, when ``ops`` is
    given, each generator g renamed ``ops[g]``."""
    if isinstance(term, int):
        return leaves[term]
    gen, left, right = term
    return (ops[gen] if ops else gen, substitute(left, leaves, ops),
            substitute(right, leaves, ops))


def serialize_term(t) -> str:
    if isinstance(t, int):
        return str(t)
    return f"({t[0]} {serialize_term(t[1])} {serialize_term(t[2])})"


def subterms(terms) -> list:
    """Every product subterm of ``terms`` once, operands first."""
    seen: dict = {}

    def visit(term):
        if isinstance(term, tuple) and term not in seen:
            visit(term[1])
            visit(term[2])
            seen[term] = None

    for term in terms:
        visit(term)
    return list(seen)


def monomials(relation) -> list:
    """The terms of a relation's members, in order, signs dropped."""
    return [term for term, _ in relation]


@dataclass(frozen=True)
class Presentation:
    """Binary generators and signed relations over terms with leaves 1..n.

    A term is a leaf label or a tuple ``(gen, left, right)``.  A relation is
    a tuple of members ``(term, sign)`` of one arity, read as: the first
    member equals the signed sum of the rest; the set quotient identifies all
    members.  A registry entry also names the parameter kind ``kind`` it
    defines, on which every member of a relation evaluates alike: its laws
    ``(id, relation, i, j)`` say that member i equals member j, read in the
    tables that ``GENERATOR_OPS`` assigns to the generators.
    """

    generators: tuple
    mode: str  # "planar" | "labeled"
    relations: tuple = ()
    kind: str | None = None
    laws: tuple = ()

    def __post_init__(self):
        if self.mode not in ("planar", "labeled"):
            raise PreconditionError("mode must be 'planar' or 'labeled'")
        object.__setattr__(self, "generators", tuple(self.generators))
        for i, g in enumerate(self.generators):
            if not _word(g):
                raise PreconditionError(f"generator {g!r} is not a word of the term grammar")
            if g in self.generators[:i]:
                raise PreconditionError(f"generator {g!r} is repeated")
        object.__setattr__(self, "relations", tuple(map(tuple, self.relations)))
        for relation in self.relations:
            if not all(isinstance(m, tuple) and len(m) == 2 and type(m[1]) is int and
                       m[1] in (1, -1) for m in relation):
                raise PreconditionError("a relation member is a pair (term, sign), "
                                        "the sign 1 or -1")
            for t in monomials(relation):
                leaves = _checked_leaves(t, "relation member")
                unknown = {node[0] for node in subterms([t])} - set(self.generators)
                if unknown:
                    raise PreconditionError(f"relation member {serialize_term(t)} applies "
                                            f"{', '.join(map(repr, sorted(unknown)))}, "
                                            "which is not a generator")
                if self.mode == "planar" and leaves != sorted(leaves):
                    raise PreconditionError(f"relation member {serialize_term(t)} does not "
                                            "carry its leaves left to right, as planar mode asks")
            arities = sorted({term_arity(t) for t in monomials(relation)})
            if len(arities) > 1:
                raise PreconditionError(f"the relation of {serialize_term(relation[0][0])} mixes "
                                        f"the arities {arities}; each relation needs one")

    def to_json(self) -> dict:
        """Members as text, a member of sign -1 with a leading ``-``."""
        return {"generators": list(self.generators), "mode": self.mode,
                "relations": [["-" * (sign < 0) + serialize_term(t) for t, sign in relation]
                              for relation in self.relations]}

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        from .presentations import parse_term
        generators, mode, relations = _json_fields(
            data, "presentation", "generators", "mode", "relations")
        if not (isinstance(relations, list) and
                all(isinstance(v, list) for v in (generators, *relations)) and
                all(isinstance(t, str) for relation in relations for t in relation)):
            raise PreconditionError("presentation generators and relations "
                                    "must be lists, members strings")
        return cls(generators, mode,
                   [[(parse_term(t.removeprefix("-")), -1 if t.startswith("-") else 1)
                     for t in relation] for relation in relations])


def _registry() -> dict:
    p, s, m, r = "prec", "succ", "mul", "rhd"
    x, y, z = 1, 2, 3
    return {
        "dendriform": Presentation((p, s), "planar", (
            (((p, (p, x, y), z), 1), ((p, x, (p, y, z)), 1), ((p, x, (s, y, z)), 1)),
            (((p, (s, x, y), z), 1), ((s, x, (p, y, z)), 1)),
            (((s, x, (s, y, z)), 1), ((s, (s, x, y), z), 1), ((s, (p, x, y), z), 1))),
            "diassociative", (("D1", 0, 0, 1), ("D2", 0, 1, 2), ("D3", 1, 0, 1),
                              ("D4", 2, 1, 2), ("D5", 2, 2, 0))),
        "duplicial": Presentation((p, s), "planar", (
            (((p, (p, x, y), z), 1), ((p, x, (p, y, z)), 1)),
            (((p, (s, x, y), z), 1), ((s, x, (p, y, z)), 1)),
            (((s, x, (s, y, z)), 1), ((s, (s, x, y), z), 1))),
            "duplicial", (("U1", 0, 0, 1), ("U2", 1, 0, 1), ("U3", 2, 1, 0))),
        "associative": Presentation(
            (m,), "planar", ((((m, (m, x, y), z), 1), ((m, x, (m, y, z)), 1)),),
            "associative", (("A1", 0, 0, 1),)),
        "twist": Presentation(
            (m,), "labeled", ((((m, x, (m, y, z)), 1), ((m, (m, y, x), z), -1)),),
            "twist_associative", (("T1", 0, 0, 1),)),
        "napnap": Presentation((m,), "labeled", (
            (((m, x, (m, y, z)), 1), ((m, y, (m, x, z)), 1)),
            (((m, (m, x, y), z), 1), ((m, (m, y, x), z), 1))),
            "napnapprime", (("N1", 0, 0, 1), ("N2", 1, 0, 1))),
        "prelie": Presentation((r,), "labeled", (  # x(yz) = (xy)z + y(xz) - (yx)z
            (((r, x, (r, y, z)), 1), ((r, (r, x, y), z), 1),
             ((r, y, (r, x, z)), 1), ((r, (r, y, x), z), -1)),),
            "perm", (("P1", 0, 1, 0), ("P2", 0, 0, 2), ("P3", 0, 1, 3))),
    }


RELATIONS = _registry()

# The parameter table that each generator reads.
GENERATOR_OPS = {"prec": "la", "succ": "ra", "rhd": "mul", "mul": "mul"}


# ---------------------------------------------------------------------------
# Laws.  A law is (id, lhs, rhs) where each side is a term tree: an integer
# 0..k-1 names a variable, a tuple (op, l, r) applies an operation table.


def law_term(term, ops=None):
    """A term over leaves 1..n as a compiler term over variables 0..n-1,
    each generator renamed through ``ops`` when given."""
    return substitute(term, {v: v - 1 for v in term_leaves(term)}, ops)


# Compatibility of the triangles with the arrows in an extended duplicial
# semigroup: E0/E00 are the absorption laws, E1/E2 govern lt, E3/E4 govern rt.
_EXT_LAWS = (
    ("E0", ("rt", 0, ("la", 1, 2)), ("rt", 0, 1)),
    ("E00", ("lt", ("ra", 0, 1), 2), ("lt", 1, 2)),
    ("E1", ("la", ("lt", 0, 1), ("lt", ("la", 0, 1), 2)), ("lt", 0, ("la", 1, 2))),
    ("E2", ("lt", ("lt", 0, 1), ("lt", ("la", 0, 1), 2)), ("lt", 1, 2)),
    ("E3", ("rt", ("rt", 0, ("ra", 1, 2)), ("rt", 1, 2)), ("rt", 0, 1)),
    ("E4", ("ra", ("rt", 0, ("ra", 1, 2)), ("rt", 1, 2)), ("rt", ("ra", 0, 1), 2)),
)


def _kind_laws() -> dict:
    """The laws of each parameter kind, read off its presented relations;
    ``edus`` adds the triangle laws to the duplicial ones."""
    out = {}
    for entry in RELATIONS.values():
        out[entry.kind] = tuple(
            (law_id, law_term(terms[i], GENERATOR_OPS), law_term(terms[j], GENERATOR_OPS))
            for law_id, rel, i, j in entry.laws
            for terms in [monomials(entry.relations[rel])])
        if entry.kind == "duplicial":
            out["edus"] = out["duplicial"] + _EXT_LAWS
    return out


KIND_LAWS = _kind_laws()


def law_tables(law) -> frozenset:
    """The tables that a law ``(id, lhs, rhs)`` applies."""
    return frozenset(term[0] for term in subterms(law[1:]))


# The tables that each kind's laws apply, in name order.
_KIND_TABLES = {kind: tuple(sorted({op for law in laws for op in law_tables(law)}))
               for kind, laws in KIND_LAWS.items()}
MAGMA_KINDS = tuple(kind for kind, ops in _KIND_TABLES.items() if ops == ("mul",))

_OP_FIELDS = {"la": "left_arrow", "ra": "right_arrow", "lt": "left_tri",
              "rt": "right_tri", "mul": "table"}


def tables_by_op(s, names) -> dict:
    """The table of ``s`` that each name reads, keyed by name.  A name is a
    table operation (la, ra, lt, rt, mul) or a generator, which reads the
    table ``GENERATOR_OPS`` gives it."""
    tables = {}
    for name in names:
        field = _OP_FIELDS.get(GENERATOR_OPS.get(name, name))
        if field is None:
            raise PreconditionError(f"no table for {name!r}")
        tables[name] = getattr(s, field, None)
        if tables[name] is None:
            raise PreconditionError(f"{name!r} reads the {field} table, which "
                                    f"the {type(s).__name__} lacks")
    return tables


def family_presentation(p: Presentation, structure) -> Presentation:
    """``p`` over ``structure``: at each parameter triple on the leaves 1, 2, 3
    in lex order, each relation of ``p`` with every node ``(g, l, r)`` whose
    operands carry a and b made ``g_a_b``, which carries g's table at (a, b)."""
    tables = tables_by_op(structure, p.generators)
    if any(term_arity(t) != 3 for relation in p.relations for t in monomials(relation)):
        raise PreconditionError("a family presentation needs relation members of arity 3")
    w = range(structure.size)
    names = {(g, a, b): f"{g}_{a}_{b}" for g in p.generators for a in w for b in w}

    def instantiate(term, params):  # the term and the parameter it carries
        if isinstance(term, int):
            return term, params[term - 1]
        (left, a), (right, b) = instantiate(term[1], params), instantiate(term[2], params)
        return (names[term[0], a, b], left, right), tables[term[0]][a][b]

    relations = tuple(tuple((instantiate(t, params)[0], sign) for t, sign in relation)
                      for params in itertools.product(w, repeat=3) for relation in p.relations)
    return _trusted(Presentation, tuple(names.values()), p.mode, relations, None, ())


def _tables_of(s, kind: str) -> dict:
    """The tables of ``s`` that the laws of ``kind`` apply."""
    cls = Magma if kind in MAGMA_KINDS else OmegaStructure
    if not isinstance(s, cls):
        raise PreconditionError(f"kind {kind!r} requires a{'n' * (cls is OmegaStructure)} "
                                f"{cls.__name__}")
    return tables_by_op(s, _KIND_TABLES[kind])


def eval_term(term, tables: dict, env):
    """Value of one term at one point: ``env[v]`` is the value of variable
    ``v``, ``tables[op]`` the table of operation ``op``."""
    if isinstance(term, int):
        return env[term]
    op, l, r = term
    return tables[op][eval_term(l, tables, env)][eval_term(r, tables, env)]


# ---------------------------------------------------------------------------
# The law compiler


@lru_cache(maxsize=512)
def compile_laws(laws):
    """Compile laws ``(id, lhs, rhs)`` over variables ``0..k-1`` into one
    straight-line checker.

    Returns ``(ops, check)`` with ``ops`` the sorted operation names.
    ``check(out, size, *tables)`` takes one table per name in ``ops`` and
    runs ``k`` nested loops over ``range(size)``, variable 0 outermost.
    Subterms shared between laws are computed once, and each row lookup
    sits in the outermost loop whose variables it reads.  An instance is
    violated when its two sides differ and neither equals ``size``: tables
    padded by one row and column of ``size`` absorb unknown cells, so the
    same check prunes partial tables.  With ``out`` None, ``check`` returns
    the first violation ``(law index, args)`` in lex order of ``args``, or
    None; otherwise it appends every violation to ``out``, laws in order
    within one ``args``.

    Only indices reach the generated source; operation names and law ids,
    which may come from user input, never do.
    """
    variables = [v for law in laws for side in law[1:] for v in term_leaves(side)]
    if min(variables, default=0) < 0:
        raise ValueError(f"variable {min(variables)} is negative")
    k = max(variables, default=-1) + 1
    ops = sorted(frozenset().union(*map(law_tables, laws)))
    body: list = [[] for _ in range(k)]  # statements at each loop depth
    names: dict = {}
    rows: dict = {}

    def name(term) -> str:
        if isinstance(term, int):
            return f"v{term}"
        if term not in names:
            op, l, r = term
            lname, rname = name(l), name(r)
            if (op, l) not in rows:
                rows[op, l] = f"r{len(rows)}"
                body[max(term_leaves(l))].append(f"{rows[op, l]} = t{ops.index(op)}[{lname}]")
            names[term] = f"e{len(names)}"
            body[max(term_leaves(term))].append(f"{names[term]} = {rows[op, l]}[{rname}]")
        return names[term]

    args = "(" + "".join(f"v{i}, " for i in range(k)) + ")"
    for i, (_, lhs, rhs) in enumerate(laws):
        a, b = name(lhs), name(rhs)
        body[k - 1] += [f"if {a} != {b} and {a} != size and {b} != size:",
                        "    if out is None:",
                        f"        return {i}, {args}",
                        f"    out.append(({i}, {args}))"]
    lines = ["def check(out, size" + "".join(f", t{i}" for i in range(len(ops))) + "):"]
    for d in range(k):
        lines.append("    " * (d + 1) + f"for v{d} in range(size):")
        lines.extend("    " * (d + 2) + stmt for stmt in body[d])
    lines.append("    return None")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<laws>", "exec"), namespace)
    return tuple(ops), namespace["check"]


def first_violation(laws, tables: dict, size: int, out: list | None = None):
    """The first violated ``(law index, args)`` of ``laws``, or None; with
    ``out`` a list, every violation is appended to it instead."""
    ops, check = compile_laws(laws)
    return check(out, size, *[tables[op] for op in ops])


def check_laws(s, kind: str) -> LawReport:
    """Check every defining identity of ``kind`` over all triples.

    Witnesses list every (law id, triple) violation; the scan never
    short-circuits.
    """
    if kind not in KIND_LAWS:
        raise ValueError(f"unknown kind {kind!r}")
    laws = KIND_LAWS[kind]
    found: list = []
    first_violation(laws, _tables_of(s, kind), s.size, found)
    report = LawReport(kind=kind)
    for i, args in found:
        report.add(laws[i][0], args)
    report.details["instances"] = s.size ** 3 * len(laws)
    return report


@lru_cache(maxsize=8192)
def passes(s, kind: str) -> bool:
    """Cached law check used as a precondition guard elsewhere."""
    return first_violation(KIND_LAWS[kind], _tables_of(s, kind), s.size) is None


def edus_passes(la: Table, ra: Table, lt: Table, rt: Table, size: int) -> bool:
    """The nine extended duplicial laws on raw tables."""
    tables = {"la": la, "ra": ra, "lt": lt, "rt": rt}
    return first_violation(KIND_LAWS["edus"], tables, size) is None


# ---------------------------------------------------------------------------
# Enumeration


def size_bound(force: bool = False) -> int:
    text = os.environ.get("FAMOP_MAX_SIZE", "3")
    if not _digits(text):
        raise ValueError(f"FAMOP_MAX_SIZE {text!r} is not ASCII digits")
    bound = int(text)
    if force:
        bound = max(bound, 4)
    return bound


def _pad(table, size: int) -> list:
    """A mutable copy with one more row and column, all ``size``."""
    return [list(row) + [size] for row in table] + [[size] * (size + 1)]


def _search_single(size: int, laws, op: str, context: dict | None = None):
    """All ``op`` tables (lex order) satisfying the laws, other tables fixed.

    Cells are filled in row-major order, unfilled cells hold ``size``; the
    compiled check prunes as soon as a law instance has two known sides
    that differ.
    """
    tables = {name: _pad(t, size) for name, t in (context or {}).items()}
    table = tables[op] = _pad([[size] * size] * size, size)
    ops, check = compile_laws(laws)
    args = [tables[name] for name in ops]
    out = []

    def fill(k: int):
        if k == size * size:
            out.append(tuple(tuple(row[:size]) for row in table[:size]))
            return
        row, j = table[k // size], k % size
        for v in range(size):
            row[j] = v
            if check(None, size, *args) is None:
                fill(k + 1)
        row[j] = size

    fill(0)
    return out


@lru_cache(maxsize=16)
def _assoc_tables(size: int) -> tuple[Table, ...]:
    return tuple(_search_single(size, KIND_LAWS["associative"], "mul"))


def _relabel(table: Table, sigma) -> Table:
    """``table`` carried along the permutation ``sigma`` of the carrier: the
    table ``t`` with ``t[sigma[a]][sigma[b]] == sigma[table[a][b]]``."""
    inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
    return tuple([tuple([sigma[table[a][b]] for b in inverse]) for a in inverse])


def _by_orbit(items, size: int, image, solve, carry):
    """``(item, result)`` for each of ``items`` in order, where ``solve`` runs
    only on the first item of each orbit under relabelling of the carrier.

    The laws have no constants, so relabelling by a permutation ``sigma``
    maps their models onto their models: an item ``image(first, sigma)``
    gets ``carry(solve(first), sigma)``.
    """
    perms = list(itertools.permutations(range(size)))
    found: dict = {}  # item -> (the result of the first item of its orbit, sigma)
    for item in items:
        if item in found:
            result, sigma = found[item]
            yield item, carry(result, sigma)
            continue
        result = solve(item)
        for sigma in perms:
            found.setdefault(image(item, sigma), (result, sigma))
        yield item, result


def _index_maps(tables, size: int) -> dict:
    """For each permutation ``sigma`` of the carrier, the position in
    ``tables``, a sequence closed under relabelling, of ``sigma(t)`` for each
    table ``t``.  Only the adjacent transpositions relabel tables: they
    generate the permutations, and every other map composes two maps."""
    position = {table: i for i, table in enumerate(tables)}
    swaps = {}
    for k in range(size - 1):
        swap = (*range(k), k + 1, k, *range(k + 2, size))
        swaps[swap] = [position[_relabel(table, swap)] for table in tables]
    maps = {tuple(range(size)): list(range(len(tables)))}
    queue = list(maps)
    for sigma in queue:
        for swap, index in swaps.items():
            composed = tuple(swap[x] for x in sigma)
            if composed not in maps:
                maps[composed] = [index[j] for j in maps[sigma]]
                queue.append(composed)
    return maps


def _row_local(term, op: str, var: int) -> bool:
    """Whether every ``op`` node of ``term`` has variable ``var`` as its left
    operand and ``var`` occurs nowhere else: the term then reads one row of
    ``op``, row ``var``."""
    if isinstance(term, int):
        return term != var
    o, l, r = term
    if o == op and l == var:
        return _row_local(r, op, var)
    return o != op and _row_local(l, op, var) and _row_local(r, op, var)


def _arrow_pairs(size: int, laws) -> list:
    """All pairs (left, right) of associative tables satisfying ``laws``, in
    lex order.

    A law row-local in ``ra`` holds for (left, right) iff it holds for left
    and every constant-row table ``(r, ..., r)`` with r a row of right.  So
    for the first left arrow of each relabelling orbit the rows passing
    those laws are found once, the right arrows are walked by first row and
    kept when all their rows pass, and only these survivors meet the
    remaining laws.  Every other left arrow ``sigma(left)`` of the orbit
    gets the rights ``sigma(right)``, read off an index map of the
    associative tables under ``sigma``.
    """
    assoc = _assoc_tables(size)
    local = tuple(law for law in laws
                  if _row_local(law[1], "ra", 0) and _row_local(law[2], "ra", 0))
    rest = tuple(law for law in laws if law not in local)
    # Tables in name order: la, ra.
    local_check = compile_laws(local)[1]
    rest_check = compile_laws(rest)[1] if rest else None
    by_first: dict = {}
    for i, table in enumerate(assoc):
        by_first.setdefault(table[0], []).append(i)
    rows = list(itertools.product(range(size), repeat=size))
    moved = _index_maps(assoc, size)

    def rights(i):
        left = assoc[i]
        passing = [r for r in rows if local_check(None, size, left, (r,) * size) is None]
        ok = set(passing)
        return [j for r in passing for j in by_first.get(r, ())
                if ok.issuperset(assoc[j]) and
                (rest_check is None or rest_check(None, size, left, assoc[j]) is None)]

    def carry(found, sigma):
        index = moved[sigma]
        return sorted(index[j] for j in found)

    pairs = []
    for i, found in _by_orbit(range(len(assoc)), size, lambda i, sigma: moved[sigma][i],
                              rights, carry):
        left = assoc[i]
        pairs += [(left, assoc[j]) for j in found]
    return pairs


def enumerate_structures(size: int, kind: str, force: bool = False) -> list:
    """All labeled structures of the given kind and size, lex-ordered by
    flattened tables.

    The default size bound is 3; size 4 needs ``force=True`` (or a raised
    ``FAMOP_MAX_SIZE``).  Both arrows of a diassociative or duplicial
    semigroup are associative (for diassociative the right arrow inherits it
    from D4+D5), so the arrows are pairs of associative tables joined by
    ``_arrow_pairs``.  The join, and for ``edus`` the triangle searches, run
    once per orbit under relabelling of the carrier (``_by_orbit``); the
    rest of each orbit is relabelled.  At size 4 the 3492 left arrows fall
    into 188 orbits, and the join takes about 0.2 s.  ``edus`` stops at
    size 3 whatever the bound: at size 4 its triangle searches, one pair of
    them for each of 8898 orbits of arrow pairs, would take about 40
    minutes and give about 60 million structures.
    """
    if kind not in KIND_LAWS:
        raise ValueError(f"unknown kind {kind!r}")
    _integers("size", size)
    if size > size_bound(force):
        raise ResourceBoundError(
            f"size {size} exceeds the enumeration bound {size_bound(force)}; "
            f"pass force=True (size 4) or set FAMOP_MAX_SIZE")
    if kind == "edus" and size > 3:
        raise ResourceBoundError(f"edus enumeration at size {size} would take hours; "
                                 "the bound for edus is 3")

    if kind in MAGMA_KINDS:
        tables = (_assoc_tables(size) if kind == "associative"
                  else _search_single(size, KIND_LAWS[kind], "mul"))
        return [_trusted(Magma, size, t) for t in tables]

    laws = KIND_LAWS[kind]
    pairs = _arrow_pairs(size, tuple(law for law in laws if law_tables(law) == {"la", "ra"}))
    lt_laws, rt_laws = (tuple(law for law in laws if op in law_tables(law)) for op in ("lt", "rt"))
    if not lt_laws:
        return [_trusted(OmegaStructure, size, l, r, None, None) for l, r in pairs]

    def triangles(pair):
        arrows = {"la": pair[0], "ra": pair[1]}
        lts = _search_single(size, lt_laws, "lt", arrows)
        return lts, lts and _search_single(size, rt_laws, "rt", arrows)

    def carry(found, sigma):
        return tuple(sorted(_relabel(t, sigma) for t in ts) for ts in found)

    out = []
    for (left, right), (lts, rts) in _by_orbit(
            pairs, size, lambda pair, sigma: tuple(_relabel(t, sigma) for t in pair),
            triangles, carry):
        for lt in lts:
            for rt in rts:
                out.append(_trusted(OmegaStructure, size, left, right, lt, rt))
    return out


# ---------------------------------------------------------------------------
# Symbolic infinite models


@dataclass(frozen=True)
class TwistedMonomial:
    """Element head.tail.X^powers of the free twisted semigroup on an
    alphabet; powers is a canonical multiset of alphabet letters."""

    head: object
    tail: object
    powers: tuple = ()

    def __post_init__(self):
        powers = dict(self.powers)
        _integers("multiplicity", *powers.values(), low=0)
        object.__setattr__(self, "powers", tuple(sorted((k, m) for k, m in powers.items() if m)))

    @classmethod
    def generator(cls, d) -> "TwistedMonomial":
        return cls(d, d, ())


def _add_powers(p, q, *extra):
    acc: dict = {}
    for src in (p, q):
        for k, m in src:
            acc[k] = acc.get(k, 0) + m
    for k in extra:
        acc[k] = acc.get(k, 0) + 1
    return tuple(acc.items())


def twisted_product(x: TwistedMonomial, y: TwistedMonomial) -> TwistedMonomial:
    return TwistedMonomial(x.tail, y.tail, _add_powers(x.powers, y.powers, x.head, y.head))


@dataclass(frozen=True)
class NatMultiset:
    """Multiset of positive integers, possibly empty."""

    entries: tuple = ()

    def __post_init__(self):
        entries = tuple(self.entries)
        _integers("multiset entry", *entries)
        object.__setattr__(self, "entries", tuple(sorted(entries)))


def multiset_product(x: NatMultiset, y: NatMultiset) -> NatMultiset:
    return NatMultiset((sum(x.entries) + 1,) + y.entries)


def model_product(model: str, x, y):
    """Product in one of the two symbolic models."""
    if model == "twisted_monomials":
        if not (isinstance(x, TwistedMonomial) and isinstance(y, TwistedMonomial)):
            raise TypeError("twisted_monomials expects TwistedMonomial operands")
        return twisted_product(x, y)
    if model == "nat_multisets":
        if not (isinstance(x, NatMultiset) and isinstance(y, NatMultiset)):
            raise TypeError("nat_multisets expects NatMultiset operands")
        return multiset_product(x, y)
    raise ValueError(f"unknown model {model!r}")
