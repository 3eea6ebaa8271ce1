"""Dimension series of the two-parameter tree operads.

``r_sequence`` produces the dimension polynomials r_1..r_N in the
parameter-set size w from the four-term recurrence; ``verify_identities``
checks the cubic series identity and the structural facts (degree,
leading coefficient, divisibility, specialization at w = 1);
``count_basis_trees`` is an independent oracle that counts operation
trees over the family presentation of the duplicial relations, avoiding
the left-comb members of its relations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionError, ResourceBoundError
from .omega import (RELATIONS, OmegaStructure, _integers, ds_projections, family_presentation,
                    monomials)
from .report import LawReport
from .trees import catalan


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial in w, ascending coefficients, no trailing
    zeros."""

    coeffs: tuple = ()

    def __post_init__(self):
        c = tuple(self.coeffs)
        _integers("coefficient", *c, low=None)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def const(cls, v: int) -> "IntPoly":
        return cls((v,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPoly":
        _integers("power", power, low=0)
        return cls((0,) * power + (coeff,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-v for v in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def scale(self, v: int) -> "IntPoly":
        return IntPoly(tuple(v * c for c in self.coeffs))

    def __call__(self, w: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def shift(self, k: int) -> "IntPoly":
        """Multiply by w^k (or divide exactly for negative k)."""
        _integers("shift", k, low=None)
        if k >= 0:
            return IntPoly((0,) * k + self.coeffs)
        if any(self.coeffs[:-k]):
            raise ValueError(f"not divisible by w^{-k}")
        return IntPoly(self.coeffs[-k:])

    def divisible_by_power(self, k: int) -> bool:
        _integers("power", k, low=0)
        return not self or all(v == 0 for v in self.coeffs[:k])

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @classmethod
    def from_json(cls, data) -> "IntPoly":
        if not isinstance(data, list):
            raise PreconditionError(f"a polynomial is a JSON list of integers, not {data!r}")
        return cls(data)


ZERO = IntPoly()
ONE = IntPoly((1,))
W = IntPoly((0, 1))


@dataclass(frozen=True)
class PolySeries:
    """Coefficients r_1..r_order of a power series in X over IntPoly."""

    order: int
    polys: tuple

    def __post_init__(self):
        _integers("order", self.order)
        if len(self.polys) != self.order:
            raise PreconditionError("the order must match the coefficient count")
        object.__setattr__(self, "polys", tuple(self.polys))

    def r(self, n: int) -> IntPoly:
        _integers("n", n, high=self.order)
        return self.polys[n - 1]


def r_sequence(order: int) -> PolySeries:
    """r_1 = 1 and, for n >= 2,

    r_n = w^2(w-1) sum_{i+j+k=n} r_i r_j r_k + w^2 sum_{i+j=n-1} r_i r_j
          + w(2w-2) sum_{i+j=n} r_i r_j + 2w r_{n-1},

    all sums over indices >= 1, with exact integer polynomial arithmetic.
    """
    _integers("order", order)
    if order > 64:
        raise ResourceBoundError("order must be in 1..64")
    r = [ZERO, ONE]  # r[0] unused
    conv2 = [ZERO, ZERO]  # conv2[m] = sum_{i+j=m} r_i r_j
    a3 = W * W * (W - ONE)
    a2x = W * W
    a2 = W * (W.scale(2) - IntPoly.const(2))
    for n in range(2, order + 1):
        c2 = ZERO
        for i in range(1, n):
            c2 = c2 + r[i] * r[n - i]
        conv2.append(c2)
        conv3 = ZERO  # sum_{i+j+k=n} r_i r_j r_k = sum_i r_i conv2[n-i]
        for i in range(1, n - 1):
            conv3 = conv3 + r[i] * conv2[n - i]
        r.append(a3 * conv3 + a2x * conv2[n - 1] + a2 * c2 + r[n - 1] * W.scale(2))
    return PolySeries(order, tuple(r[1:]))


def cubic_residual(series: PolySeries) -> list[IntPoly]:
    """Coefficients of w^2(w-1)R^3 + w(wX+2w-2)R^2 + (2wX-1)R + X up to the
    series order; all must vanish."""
    n_max = series.order
    r = [ZERO] + list(series.polys)
    conv2 = [ZERO] * (n_max + 1)  # sum_{i+j=m} r_i r_j
    conv3 = [ZERO] * (n_max + 1)  # sum_{i+j+k=m} r_i r_j r_k = sum_i r_i conv2[m-i]
    for m in range(n_max + 1):
        for i in range(1, m):
            conv2[m] = conv2[m] + r[i] * r[m - i]
            conv3[m] = conv3[m] + r[i] * conv2[m - i]
    a3 = W * W * (W - ONE)
    a2x = W * W
    a2 = W * (W.scale(2) - IntPoly.const(2))
    out = []
    for m in range(n_max + 1):
        res = a3 * conv3[m] + a2 * conv2[m] - r[m]
        if m >= 1:
            res = res + a2x * conv2[m - 1] + r[m - 1] * W.scale(2)
        if m == 1:
            res = res + ONE
        out.append(res)
    return out


def verify_identities(order: int) -> LawReport:
    """Check the cubic identity and the structural facts for r_1..r_order."""
    series = r_sequence(order)
    report = LawReport(kind="dims")
    for m, res in enumerate(cubic_residual(series)):
        if res:
            report.add("cubic", (m, res.to_json()))
    for n in range(1, order + 1):
        rn = series.r(n)
        if rn.degree != 2 * n - 2:
            report.add("degree", (n, rn.degree))
        if rn.leading != 2 ** (n - 1) * catalan(n):
            report.add("leading", (n, rn.leading))
        if rn(1) != catalan(n + 1):
            report.add("at_one", (n, rn(1)))
        if n >= 2:
            if not rn.divisible_by_power(n):
                report.add("divisibility", (n,))
            else:
                t = rn.shift(-n)
                t0 = t.coeffs[0] if t.coeffs else 0
                if t0 != (-1) ** n * n:
                    report.add("t_at_zero", (n, t0))
        if n % 2 == 0 and any(c % 2 for c in rn.coeffs):
            report.add("even_coeffs", (n,))
    report.details["order"] = order
    return report


# ---------------------------------------------------------------------------
# Pattern-avoiding oracle


@lru_cache(maxsize=16)
def _left_combs(structure: OmegaStructure) -> tuple:
    """The generators of the family presentation of ``RELATIONS["duplicial"]``
    over ``structure`` and the pairs (G, G') of its relations' left combs
    (G, (G', 1, 2), 3)."""
    family = family_presentation(RELATIONS["duplicial"], structure)
    return family.generators, frozenset(
        (t[0], t[1][0]) for relation in family.relations for t in monomials(relation)
        if isinstance(t[1], tuple))


def count_basis_trees(n: int, w: int, tables=None) -> int:
    """Count the trees with ``n`` leaves over the family presentation of
    ``RELATIONS["duplicial"]`` on the arrows ``tables`` (la, ra), by default
    the projections, that avoid each family relation's left-comb member; each
    excludes one first parameter, so the count is table-independent."""
    _integers("n and w", n, w)
    if n > 8 or w > 4:
        raise ResourceBoundError("count_basis_trees bound exceeded (n <= 8, w <= 4)")
    if tables is not None and not (isinstance(tables, (list, tuple)) and len(tables) == 2):
        raise PreconditionError("tables must be a pair (la, ra) of w x w tables")
    generators, combs = _left_combs(ds_projections(w) if tables is None
                                    else OmegaStructure(w, *tables))
    count: list = [None, None]  # count[m][g]: the trees with m >= 2 leaves and root g
    total = [None, 1]  # total[m]: the trees with m leaves
    left = [None, dict.fromkeys(generators, 1)]  # left[m][g]: those allowed left of g
    for m in range(2, n + 1):
        count.append({g: sum(left[i][g] * total[m - i] for i in range(1, m))
                      for g in generators})
        total.append(sum(count[m].values()))
        left.append(dict.fromkeys(generators, total[m]))
        for g, h in combs:
            left[m][g] -= count[m][h]
    return total[n]


def evaluate(obj, w: int):
    """Exact evaluation of a polynomial or of every series coefficient."""
    if isinstance(obj, IntPoly):
        return obj(w)
    if isinstance(obj, PolySeries):
        return [p(w) for p in obj.polys]
    raise TypeError("expected IntPoly or PolySeries")
