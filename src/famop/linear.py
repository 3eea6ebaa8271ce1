"""Finite-dimensional family algebras over exact rationals.

A family algebra is a basis of dimension d with, for every operation
symbol and every parameter pair, a d x d x d array of structure
constants: ``c[i][j][k]`` is the coefficient of basis vector k in the
product of basis vectors i and j.  The constants are Fractions, but the
law scan runs on the cubes times L, the lcm of their denominators: every
monomial of a law has d product nodes (``omega.Presentation`` refuses a
relation of mixed arity), so each integer side is exactly L^d times its
rational value.

One scan checks signed relations between terms in x, y, z over all basis
triples: a classical law is a relation of ``omega.RELATIONS``, a family law
one of its family presentation (``omega.family_presentation``), whose
generator ``op_p_q`` multiplies with the constants of the pair (p, q).
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, neg, sub

from . import omega as omega_mod
from .errors import PreconditionError
from .omega import RELATIONS, _integers, monomials, subterms
from .report import LawReport

Vec = tuple  # coefficient tuple over the basis


def _product(cube, x: Vec, y: Vec, zero=0) -> Vec:
    """The bilinear product of ``cube``, each coordinate summed from ``zero``."""
    out = [zero] * len(x)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    coeff = xi * yj
                    for k, ck in enumerate(cube[i][j]):
                        if ck:
                            out[k] += coeff * ck
    return tuple(out)


def _basis(dim: int, i: int, number=Fraction) -> Vec:
    return tuple(number(k == i) for k in range(dim))


def _freeze_cube(raw, dim: int):
    try:
        cube = tuple(tuple(tuple(Fraction(v) for v in row) for row in plane) for plane in raw)
    except (TypeError, ValueError, ArithmeticError):  # Fraction("x"), nan, inf, "1/0"
        raise PreconditionError(f"structure constants must form a {dim}^3 array "
                                "of numbers") from None
    if len(cube) != dim or any(len(p) != dim for p in cube) or \
            any(len(r) != dim for p in cube for r in p):
        raise PreconditionError(f"structure constants must form a {dim}^3 array")
    return cube


@dataclass
class FamilyBilinear:
    """Structure constants indexed by operation symbol and parameter pair."""

    dim: int
    omega_size: int
    ops: dict = field(default_factory=dict)  # name -> {(a, b): cube}

    def __post_init__(self):
        _integers("dim and omega_size", self.dim, self.omega_size)
        params = set(itertools.product(range(self.omega_size), repeat=2))
        frozen = {}
        for name, by_param in self.ops.items():
            frozen[name] = {tuple(p): _freeze_cube(cube, self.dim)
                            for p, cube in by_param.items()}
            if set(frozen[name]) != params:
                raise PreconditionError(f"operation {name!r} must carry one table per "
                                        f"parameter pair")
        self.ops = frozen

    def cube(self, op: str, param):
        return self.ops[op][tuple(param)]

    def product(self, op: str, param, x: Vec, y: Vec) -> Vec:
        return _product(self.cube(op, param), x, y, Fraction(0))

    def basis(self, i: int) -> Vec:
        return _basis(self.dim, i)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "omega_size": self.omega_size,
            "ops": {name: {f"({a},{b})": [[[str(v) for v in row] for row in plane]
                                          for plane in cube]
                           for (a, b), cube in by_param.items()}
                    for name, by_param in self.ops.items()},
        }

    @classmethod
    def from_json(cls, data) -> "FamilyBilinear":
        dim, omega_size, raw = omega_mod._json_fields(data, "family", "dim", "omega_size", "ops")
        if not (isinstance(raw, dict) and all(isinstance(v, dict) for v in raw.values())):
            raise PreconditionError("family ops must map each name to an object")
        ops = {name: {_param_key(key): cube for key, cube in by_param.items()}
               for name, by_param in raw.items()}
        return cls(dim, omega_size, ops)


def _param_key(key: str) -> tuple:
    """The parameter pair of a family JSON key ``"(a,b)"``, a and b ASCII digits."""
    pair = key[1:-1].split(",") if isinstance(key, str) and key[:1] + key[-1:] == "()" else []
    if len(pair) != 2 or not all(map(omega_mod._digits, pair)):
        raise PreconditionError(f"family parameter key {key!r} is not of the form '(a,b)'")
    return tuple(map(int, pair))


def zero_family(dim: int, omega_size: int, op_names) -> FamilyBilinear:
    _integers("dim and omega_size", dim, omega_size)
    zero = [[[0] * dim] * dim] * dim
    return constant_family(dim, omega_size, dict.fromkeys(op_names, zero))


def constant_family(dim: int, omega_size: int, tables: dict) -> FamilyBilinear:
    """A family whose products do not depend on the parameters; the family
    laws then reduce to the classical laws of the underlying algebra."""
    _integers("dim and omega_size", dim, omega_size)
    ops = {}
    for name, cube in tables.items():
        cube = _freeze_cube(cube, dim)
        ops[name] = {p: cube for p in itertools.product(range(omega_size), repeat=2)}
    return FamilyBilinear(dim, omega_size, ops)


def random_family(dim: int, omega_size: int, op_names, seed: int,
                  max_denominator: int = 3) -> FamilyBilinear:
    """Seeded random structure constants with small denominators; the seed
    fixes the instance for reproducible searches."""
    _integers("dim, omega_size and max_denominator", dim, omega_size, max_denominator)
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-2, 2), rng.randint(1, max_denominator))

    ops = {}
    for name in op_names:
        ops[name] = {p: [[[entry() for _ in range(dim)] for _ in range(dim)]
                         for _ in range(dim)]
                     for p in itertools.product(range(omega_size), repeat=2)}
    return FamilyBilinear(dim, omega_size, ops)


# ---------------------------------------------------------------------------
# Laws.  A kind's laws are the relations of its registry presentation over
# the leaves x = 1, y = 2, z = 3; each table gives their ids in order.

_CLASSIC_LAWS = {"dendriform": ("C1", "C2", "C3"), "duplicial": ("C1", "C2", "C3"),
                 "prelie": ("prelie",), "associative": ("assoc",)}
# Each family kind: its registry presentation, which also defines the kind of
# its parameter structure, and its laws' ids.
_FAMILY_LAWS = {"dendriform2": ("dendriform", ("F1", "F2", "F3")), "prelie2": ("prelie", ("PL",)),
                "assoc_family": ("associative", ("FA",)), "twisted_family": ("twist", ("FT",)),
                "napnap_family": ("napnap", ("FN1", "FN2"))}


_GRADED_KINDS = ("dendriform", "duplicial", "prelie")


def _ops(kind: str, generators, available, owner: str) -> tuple:
    """The generators of the kind's presentation; each must be among ``available``."""
    missing = [name for name in generators if name not in available]
    if missing:
        raise PreconditionError(f"kind {kind!r} needs operation "
                                f"{', '.join(map(repr, missing))}, which {owner} lacks")
    return generators


def _signed_sum(side, values) -> Vec:
    (term, sign), *rest = side
    out = values[term] if sign > 0 else tuple(map(neg, values[term]))
    for term, sign in rest:
        out = tuple(map(add if sign > 0 else sub, out, values[term]))
    return out


def _scan(report: LawReport, laws, cubes, dim: int) -> LawReport:
    """Add every violation ``(id, (i, j, k) + params)`` of ``laws`` ``(id,
    params, relation)`` over the basis triples to ``report``, a node
    ``(op, l, r)`` multiplying with ``cubes[op]``.  Each subterm is computed
    once per basis triple, on the cubes times the lcm of their denominators."""
    terms = subterms(term for *_, relation in laws for term in monomials(relation))
    laws = [(law_id, params, relation[:1], relation[1:]) for law_id, params, relation in laws]
    names = {term[0] for term in terms}
    scale = math.lcm(*(v.denominator for op in names for plane in cubes[op]
                       for row in plane for v in row))
    cubes = {op: [[[v.numerator * (scale // v.denominator) for v in row] for row in plane]
                  for plane in cubes[op]] for op in names}
    basis = [_basis(dim, n, int) for n in range(dim)]
    for i, j, k in itertools.product(range(dim), repeat=3):
        values: dict = {1: basis[i], 2: basis[j], 3: basis[k]}
        for term in terms:
            op, left, right = term
            values[term] = _product(cubes[op], values[left], values[right])
        for law_id, params, lhs, rhs in laws:
            if _signed_sum(lhs, values) != _signed_sum(rhs, values):
                report.add(law_id, (i, j, k) + params)
    report.details["instances"] = dim ** 3 * len(laws)
    return report


def check_family_laws(a: FamilyBilinear, structure, kind: str) -> LawReport:
    """Exact check of the family laws of ``kind``: the scan of the family
    presentation's relations.  The parameter structure must satisfy its
    matching laws first, or a precondition error names the failed identity."""
    if kind not in _FAMILY_LAWS:
        raise ValueError(f"unknown family kind {kind!r}")
    name, ids = _FAMILY_LAWS[kind]
    presentation = RELATIONS[name]
    pre_report = omega_mod.check_laws(structure, presentation.kind)
    if not pre_report.passed:
        law, args = pre_report.witnesses[0]
        raise PreconditionError(
            f"parameter structure fails {presentation.kind} identity {law} at {args}")
    names = _ops(kind, presentation.generators, a.ops, "the family")
    if a.omega_size != structure.size:
        raise ValueError("family and parameter structure sizes differ")
    # The family relations: at each parameter triple in lex order, the laws in order.
    tags = itertools.product(itertools.product(range(a.omega_size), repeat=3), ids)
    relations = omega_mod.family_presentation(presentation, structure).relations
    cubes = {f"{g}_{p}_{q}": cube for g in names for (p, q), cube in a.ops[g].items()}
    return _scan(LawReport(kind=kind), [(law_id, params, relation) for (params, law_id), relation
                                        in zip(tags, relations)], cubes, a.dim)


def check_classic_laws(b, kind: str) -> LawReport:
    """Classical (parameter-free) laws on all basis triples, exact."""
    if kind not in _CLASSIC_LAWS:
        raise ValueError(f"unknown classical kind {kind!r}")
    if isinstance(b, GradedBasisAlgebra):
        cubes = b.ops
    elif isinstance(b, FamilyBilinear):
        if b.omega_size != 1:
            raise ValueError("classical checks need a graded algebra or a "
                             "single-parameter family")
        cubes = {name: by_param[0, 0] for name, by_param in b.ops.items()}
    else:
        raise TypeError("expected GradedBasisAlgebra or FamilyBilinear")
    _ops(kind, RELATIONS[kind].generators, cubes, "the algebra")
    return _scan(LawReport(kind=f"classic_{kind}"),
                 [(law_id, (), relation) for law_id, relation
                  in zip(_CLASSIC_LAWS[kind], RELATIONS[kind].relations)], cubes, b.dim)


# ---------------------------------------------------------------------------
# Graded basis algebras


@dataclass
class GradedBasisAlgebra:
    """Algebra on basis pairs (i, color) whose products are supported on
    the single color produced by the matching color operation."""

    base_dim: int
    omega_size: int
    ops: dict          # name -> dense (dim)^3 cube over the paired basis
    grades: dict       # name -> w x w table of result colors

    def __post_init__(self):
        _integers("base_dim and omega_size", self.base_dim, self.omega_size)
        self.ops = {name: _freeze_cube(cube, self.dim) for name, cube in self.ops.items()}

    @property
    def dim(self) -> int:
        return self.base_dim * self.omega_size

    def index(self, i: int, color: int) -> int:
        return i * self.omega_size + color

    def product(self, op: str, x: Vec, y: Vec) -> Vec:
        return _product(self.ops[op], x, y, Fraction(0))

    def basis(self, n: int) -> Vec:
        return _basis(self.dim, n)


def make_graded(a: FamilyBilinear, structure, kind: str) -> GradedBasisAlgebra:
    """Tensor the family with its parameter set: basis (i, color), with
    (x (x) al) op (y (x) be) = (x op_{al,be} y) (x) (al op be)."""
    if kind not in _GRADED_KINDS:
        raise ValueError(f"unknown graded kind {kind!r}")
    w = a.omega_size
    names = _ops(kind, RELATIONS[kind].generators, a.ops, "the family")
    grades = omega_mod.tables_by_op(structure, names)
    if structure.size != w:
        raise ValueError("family and parameter structure sizes differ")
    dim = a.dim * w
    ops = {}
    for name, grade in grades.items():
        cube = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, al, j, be in itertools.product(range(a.dim), range(w), repeat=2):
            dest = cube[i * w + al][j * w + be]
            for k, c in enumerate(a.cube(name, (al, be))[i][j]):
                if c:
                    dest[k * w + grade[al][be]] += c
        ops[name] = cube
    return GradedBasisAlgebra(a.dim, w, ops, grades)


def color_support_ok(g: GradedBasisAlgebra) -> bool:
    """Every product of colors al, be is supported on the color the grade
    table prescribes."""
    w = g.omega_size
    for name, cube in g.ops.items():
        for row, col in itertools.product(range(g.dim), repeat=2):
            target = g.grades[name][row % w][col % w]
            if any(v and k % w != target for k, v in enumerate(cube[row][col])):
                return False
    return True


# ---------------------------------------------------------------------------
# Stock algebras with nonzero triple products


def zinbiel_truncated(dim: int = 3, omega_size: int = 1) -> FamilyBilinear:
    """The one-generator half-shuffle algebra truncated in degree:
    e_m prec e_n = binom(m+n-1, n) e_{m+n}, and succ is its flip.  Both
    products are nonzero with nonzero triple products, which makes its
    graded algebra sensitive to every arrow identity."""
    _integers("dim and omega_size", dim, omega_size)
    z = Fraction(0)
    prec = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    succ = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            m, n = i + 1, j + 1
            if m + n <= dim:
                prec[i][j][m + n - 1] = Fraction(math.comb(m + n - 1, n))
                succ[i][j][m + n - 1] = Fraction(math.comb(m + n - 1, m))
    return constant_family(dim, omega_size, {"prec": prec, "succ": succ})


def _rooted_trees(max_vertices: int):
    """Canonical rooted trees (nested sorted tuples) with 1..max vertices."""
    levels = [[()]]
    for _ in range(2, max_vertices + 1):
        found = set()
        for t in levels[-1]:
            for path in _tree_vertices(t):
                found.add(_tree_attach(t, path, ()))
        levels.append(sorted(found))
    out = []
    for level in levels:
        out.extend(level)
    return out


def _tree_vertices(t, prefix=()):
    yield prefix
    for i, child in enumerate(t):
        yield from _tree_vertices(child, prefix + (i,))


def _tree_size(t) -> int:
    return 1 + sum(_tree_size(c) for c in t)


def _tree_attach(t, path, sub):
    if not path:
        return tuple(sorted(t + (sub,)))
    i = path[0]
    return tuple(sorted(t[:i] + (_tree_attach(t[i], path[1:], sub),) + t[i + 1:]))


def prelie_rooted_truncated(max_vertices: int = 4, omega_size: int = 1) -> FamilyBilinear:
    """The rooted-tree algebra truncated by vertex count: x rhd y sums the
    attachments of x at every vertex of y, dropping trees that grow past
    the bound."""
    _integers("max_vertices", max_vertices)
    basis = _rooted_trees(max_vertices)
    index = {t: i for i, t in enumerate(basis)}
    dim = len(basis)
    z = Fraction(0)
    cube = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if _tree_size(x) + _tree_size(y) > max_vertices:
                continue
            for path in _tree_vertices(y):
                k = index[_tree_attach(y, path, x)]
                cube[i][j][k] += 1
    return constant_family(dim, omega_size, {"rhd": cube})
