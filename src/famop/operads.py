"""Set operads on labeled carriers: non-diagonal pairs, corollas, perm
points and linear orders, with partial compositions, the derived binary
product, exhaustive law checks, the pairs/terms isomorphism and the
surjections onto the perm operad.

Carriers are finite sets of hashable labels; partial composition at a
position requires disjoint carriers (relabel first otherwise) and splices
the second carrier in place of the position.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import presentations
from .errors import LAW_BUDGET, ResourceBoundError
from .omega import TwistedMonomial, twisted_product
from .report import LawReport


def _require_disjoint(a: frozenset, b: frozenset):
    if a & b:
        raise ValueError(f"carriers must be disjoint; shared labels {sorted(a & b, key=repr)}")


def _require_member(a, carrier: frozenset):
    if a not in carrier:
        raise ValueError(f"position {a!r} not in the carrier")


# ---------------------------------------------------------------------------
# Non-diagonal ordered pairs


@dataclass(frozen=True)
class PairElement:
    """Unit on a singleton carrier, or an ordered pair of distinct labels."""

    carrier: frozenset
    value: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        if self.value is None:
            if len(self.carrier) != 1:
                raise ValueError("the unit lives on singleton carriers only")
        else:
            a, b = self.value
            if a == b or a not in self.carrier or b not in self.carrier:
                raise ValueError("value must be a non-diagonal pair of carrier labels")
            object.__setattr__(self, "value", (a, b))

    @property
    def is_unit(self) -> bool:
        return self.value is None


def pair_elements(carrier) -> list[PairElement]:
    carrier = frozenset(carrier)
    if len(carrier) == 1:
        return [PairElement(carrier)]
    labels = sorted(carrier, key=repr)
    return [PairElement(carrier, (a, b)) for a in labels for b in labels if a != b]


def relabel_pair(x: PairElement, phi: dict) -> PairElement:
    carrier = frozenset(phi[v] for v in x.carrier)
    if x.is_unit:
        return PairElement(carrier)
    return PairElement(carrier, (phi[x.value[0]], phi[x.value[1]]))


def twist_compose(x: PairElement, a, y: PairElement) -> PairElement:
    """Partial composition of non-diagonal pairs."""
    _require_member(a, x.carrier)
    _require_disjoint(x.carrier - {a}, y.carrier)
    if x.is_unit:
        return y
    if y.is_unit:
        b = next(iter(y.carrier))
        return relabel_pair(x, {v: (b if v == a else v) for v in x.carrier})
    carrier = (x.carrier - {a}) | y.carrier
    a1, a2 = x.value
    b1, b2 = y.value
    if a == a1:
        return PairElement(carrier, (b2, a2))
    if a == a2:
        return PairElement(carrier, (a1, b2))
    return PairElement(carrier, (a1, a2))


# ---------------------------------------------------------------------------
# Corollas


@dataclass(frozen=True)
class Corolla:
    """A root plus an unordered partition of the remaining labels into
    nonempty branches."""

    root: object
    branches: frozenset = frozenset()

    def __post_init__(self):
        branches = frozenset(frozenset(b) for b in self.branches)
        seen: set = {self.root}
        for b in branches:
            if not b:
                raise ValueError("branches must be nonempty")
            if b & seen:
                raise ValueError("branches must be disjoint and avoid the root")
            seen |= b
        object.__setattr__(self, "branches", branches)

    @property
    def carrier(self) -> frozenset:
        out = {self.root}
        for b in self.branches:
            out |= b
        return frozenset(out)


def _partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def corolla_elements(carrier) -> list[Corolla]:
    carrier = frozenset(carrier)
    out = []
    for root in sorted(carrier, key=repr):
        rest = sorted(carrier - {root}, key=repr)
        for part in _partitions(rest):
            out.append(Corolla(root, frozenset(frozenset(b) for b in part)))
    return out


def relabel_corolla(x: Corolla, phi: dict) -> Corolla:
    return Corolla(phi[x.root],
                   frozenset(frozenset(phi[v] for v in b) for b in x.branches))


def corolla_compose(x: Corolla, b, y: Corolla) -> Corolla:
    """Root case: take y's root and keep all branches of both; branch case:
    replace the label by the whole carrier of y inside its branch."""
    _require_member(b, x.carrier)
    _require_disjoint(x.carrier - {b}, y.carrier)
    if b == x.root:
        return Corolla(y.root, x.branches | y.branches)
    new_branches = set()
    for branch in x.branches:
        if b in branch:
            new_branches.add((branch - {b}) | y.carrier)
        else:
            new_branches.add(branch)
    return Corolla(x.root, frozenset(new_branches))


# ---------------------------------------------------------------------------
# Perm points


@dataclass(frozen=True)
class PermPoint:
    carrier: frozenset
    value: object

    def __post_init__(self):
        object.__setattr__(self, "carrier", frozenset(self.carrier))
        if self.value not in self.carrier:
            raise ValueError("value must belong to the carrier")


def perm_elements(carrier) -> list[PermPoint]:
    carrier = frozenset(carrier)
    return [PermPoint(carrier, v) for v in sorted(carrier, key=repr)]


def relabel_perm(x: PermPoint, phi: dict) -> PermPoint:
    return PermPoint(frozenset(phi[v] for v in x.carrier), phi[x.value])


def perm_compose(x: PermPoint, a, y: PermPoint) -> PermPoint:
    _require_member(a, x.carrier)
    _require_disjoint(x.carrier - {a}, y.carrier)
    carrier = (x.carrier - {a}) | y.carrier
    return PermPoint(carrier, y.value if a == x.value else x.value)


# ---------------------------------------------------------------------------
# Linear orders


@dataclass(frozen=True)
class LinearOrder:
    sequence: tuple

    def __post_init__(self):
        seq = tuple(self.sequence)
        if len(set(seq)) != len(seq) or not seq:
            raise ValueError("a linear order lists distinct labels, at least one")
        object.__setattr__(self, "sequence", seq)

    @property
    def carrier(self) -> frozenset:
        return frozenset(self.sequence)


def order_elements(carrier) -> list[LinearOrder]:
    labels = sorted(frozenset(carrier), key=repr)
    return [LinearOrder(p) for p in itertools.permutations(labels)]


def relabel_order(x: LinearOrder, phi: dict) -> LinearOrder:
    return LinearOrder(tuple(phi[v] for v in x.sequence))


def order_compose(x: LinearOrder, a, y: LinearOrder) -> LinearOrder:
    _require_member(a, x.carrier)
    _require_disjoint(x.carrier - {a}, y.carrier)
    i = x.sequence.index(a)
    return LinearOrder(x.sequence[:i] + y.sequence + x.sequence[i + 1:])


# ---------------------------------------------------------------------------
# JSON element encodings


def element_to_json(x) -> dict:
    if isinstance(x, PairElement):
        return {"A": sorted(x.carrier, key=repr),
                "v": "unit" if x.is_unit else list(x.value)}
    if isinstance(x, Corolla):
        return {"root": x.root,
                "branches": sorted((sorted(b, key=repr) for b in x.branches),
                                   key=repr)}
    if isinstance(x, PermPoint):
        return {"A": sorted(x.carrier, key=repr), "v": x.value}
    if isinstance(x, LinearOrder):
        return {"order": list(x.sequence)}
    raise TypeError(f"no JSON encoding for {type(x).__name__}")


def element_from_json(which: str, data: dict):
    if which == "pairs":
        value = data["v"]
        return PairElement(frozenset(data["A"]),
                           None if value == "unit" else tuple(value))
    if which == "corollas":
        return Corolla(data["root"],
                       frozenset(frozenset(b) for b in data["branches"]))
    if which == "perm":
        return PermPoint(frozenset(data["A"]), data["v"])
    if which == "orders":
        return LinearOrder(tuple(data["order"]))
    raise ValueError(f"unknown operad {which!r}")


# ---------------------------------------------------------------------------
# Uniform access per operad name


_OPERADS = {
    "pairs": (pair_elements, twist_compose, relabel_pair),
    "corollas": (corolla_elements, corolla_compose, relabel_corolla),
    "perm": (perm_elements, perm_compose, relabel_perm),
    "orders": (order_elements, order_compose, relabel_order),
}


def _mu(which: str, left_label, right_label):
    if which == "pairs":
        return PairElement(frozenset({left_label, right_label}), (left_label, right_label))
    if which == "corollas":
        return Corolla(right_label, frozenset({frozenset({left_label})}))
    if which == "perm":
        return PermPoint(frozenset({left_label, right_label}), right_label)
    if which == "orders":
        return LinearOrder((left_label, right_label))
    raise ValueError(f"unknown operad {which!r}")


def _fresh_labels(used: frozenset, n: int) -> list[str]:
    out = []
    k = 0
    while len(out) < n:
        candidate = f"*{k}"
        if candidate not in used:
            out.append(candidate)
        k += 1
    return out


def binary_product(which: str, x, y):
    """The product obtained by plugging both arguments into the binary
    generator: first x at its left input, then y at its right input."""
    if which == "twisted_monomials":
        return twisted_product(x, y)
    if which == "multisets":
        from .omega import multiset_product
        return multiset_product(x, y)
    if which not in _OPERADS:
        raise TypeError(f"unknown operad {which!r}")
    _require_disjoint(x.carrier, y.carrier)
    compose = _OPERADS[which][1]
    left, right = _fresh_labels(x.carrier | y.carrier, 2)
    return compose(compose(_mu(which, left, right), left, x), right, y)


# ---------------------------------------------------------------------------
# Exhaustive law checks


def _element_count(which: str, n: int) -> int:
    """The number of elements on an ``n``-label carrier, in closed form;
    a corolla is a root and a set partition of the rest, n Bell(n - 1)."""
    if which == "pairs":
        return 1 if n == 1 else n * (n - 1)
    if which == "corollas":
        row = [1]  # a row of the Bell triangle
        for _ in range(n - 1):
            row = list(itertools.accumulate(row, initial=row[-1]))
        return n * row[0]
    return n if which == "perm" else math.factorial(n)


def _carriers(which: str, top: int):
    """The elements and the sorted labels of the carriers ``a0..``,
    ``b0..`` and ``c0..`` of every size up to ``top``, keyed by (0, 1 or
    2, size)."""
    elements, positions = {}, {}
    for size in range(1, top + 1):
        for i, name in enumerate("abc"):
            carrier = frozenset(f"{name}{j}" for j in range(size))
            elements[i, size] = _OPERADS[which][0](carrier)
            positions[i, size] = sorted(carrier)
    return elements, positions


def _pair_case(pos, value) -> int:
    if pos == value[0]:
        return 0
    if pos == value[1]:
        return 1
    return 2


class _CompositionTable(dict):
    """Composition on interned ids for one first factor.  The distinct
    ``elements`` take the ids 0, 1, ...; the first lookup of a key
    ``[x_id, position, y_id]`` composes through the validating ``compose``
    and gives the composite the id of an equal element met before, or a new one."""

    def __init__(self, compose, elements: list):
        self.compose, self.elements = compose, elements
        self.ids = {e: i for i, e in enumerate(elements)}

    def __missing__(self, key) -> int:
        i, pos, j = key
        self.elements.append(self.compose(self.elements[i], pos, self.elements[j]))
        out = self[key] = self.ids.setdefault(self.elements[-1], len(self.elements) - 1)
        return out


def check_operad_laws(which: str, max_size: int = 3) -> LawReport:
    """Sequential and parallel associativity, unit behavior and relabeling
    equivariance over all elements and positions up to the size bounds.

    For corollas the bound applies to the total of the three carrier
    sizes (their element counts grow fast); for the other operads to each
    carrier.  For pairs the parallel scan additionally includes first
    carriers one label larger, since the pattern with both positions off
    the value needs four labels; the report counts the distinct
    sequential and parallel case patterns observed.  Over
    ``LAW_BUDGET`` instances, counted first, raise ``ResourceBoundError``.
    """
    if which not in _OPERADS:
        raise ValueError(f"unknown operad {which!r}")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    elements_of, compose, relabel = _OPERADS[which]
    report = LawReport(kind=f"{which}_operad")
    per_carrier = which != "corollas"
    seq_cases: set = set()
    par_cases: set = set()
    instances = 0
    top = max_size + (1 if which == "pairs" else 0)

    def size_triples(first_top: int, cap: int = top):
        for sa in range(1, min(first_top, cap) + 1):
            for sb in range(1, min(max_size, cap) + 1):
                for sc in range(1, min(max_size, cap) + 1):
                    if per_carrier or sa + sb + sc <= max_size:
                        yield sa, sb, sc

    # The sizes counted so far bound the instances from below: an oversized check stops early.
    for cap in range(1, top + 1):
        n = {s: _element_count(which, s) for s in range(1, cap + 1)}
        seq = sum(n[p] * p * n[q] * q * n[r] for p, q, r in size_triples(max_size, cap))
        par = sum(n[p] * p * (p - 1) * n[q] * n[r] for p, q, r in size_triples(top, cap))
        units = sum(n[s] * (s + 1) for s in range(1, min(cap, max_size) + 1))
        if seq + par + units > LAW_BUDGET:
            raise ResourceBoundError(f"{which} at max {max_size}: over {LAW_BUDGET} instances")
    elements, positions = _carriers(which, top)

    # Sequential associativity: (x o_a y) o_b z == x o_a (y o_b z), b in y.
    for sa, sb, sc in size_triples(max_size):
        ys, zs = elements[1, sb], elements[2, sc]
        for x in elements[0, sa]:
            comp = _CompositionTable(compose, [x, *ys, *zs])
            for a in positions[0, sa]:
                for yi, y in enumerate(ys, 1):
                    xy = comp[0, a, yi]
                    for b in positions[1, sb]:
                        if which == "pairs" and not x.is_unit and not y.is_unit:
                            seq_cases.add((_pair_case(a, x.value), _pair_case(b, y.value)))
                        for zi, z in enumerate(zs, len(ys) + 1):
                            instances += 1
                            if comp[xy, b, zi] != comp[0, a, comp[yi, b, zi]]:
                                report.add("sequential", (repr(x), a, repr(y), b, repr(z)))

    # Parallel associativity: (x o_a y) o_a' z == (x o_a' z) o_a y.
    for sa, sb, sc in size_triples(top):
        if sa < 2:
            continue
        ys, zs = elements[1, sb], elements[2, sc]
        for x in elements[0, sa]:
            comp = _CompositionTable(compose, [x, *ys, *zs])
            for a in positions[0, sa]:
                for a2 in positions[0, sa]:
                    if a == a2:
                        continue
                    if which == "pairs" and not x.is_unit:
                        par_cases.add((_pair_case(a, x.value), _pair_case(a2, x.value)))
                    for yi, y in enumerate(ys, 1):
                        xy = comp[0, a, yi]
                        for zi, z in enumerate(zs, len(ys) + 1):
                            instances += 1
                            if comp[xy, a2, zi] != comp[comp[0, a2, zi], a, yi]:
                                report.add("parallel", (repr(x), a, repr(y), a2, repr(z)))

    # Unit behavior: the singleton element swallows compositions.
    for unit in elements_of(frozenset({"u0"})):
        for s in range(1, max_size + 1):
            for y in elements[1, s]:
                instances += 1
                if compose(unit, "u0", y) != y:
                    report.add("left_unit", (repr(unit), repr(y)))
            for x in elements[0, s]:
                for a in positions[0, s]:
                    instances += 1
                    expected = relabel(x, {v: ("u0" if v == a else v)
                                           for v in x.carrier})
                    if compose(x, a, unit) != expected:
                        report.add("right_unit", (repr(x), a))

    # Relabeling equivariance: renaming after composing equals composing
    # the renamed factors, with the plugged position routed through a
    # fresh name so the factors stay disjoint.
    for sa in range(1, min(top, 2) + 1):
        for sb in range(1, min(top, 2) + 1):
            for x in elements[0, sa]:
                for a in positions[0, sa]:
                    for y in elements[1, sb]:
                        composed = compose(x, a, y)
                        labels = sorted(composed.carrier)
                        targets = [f"m{i}" for i in range(len(labels))]
                        for perm in itertools.permutations(targets):
                            phi = dict(zip(labels, perm))
                            instances += 1
                            lhs = relabel(composed, phi)
                            phi_x = {v: phi[v] for v in x.carrier if v != a}
                            phi_x[a] = "hole"
                            rhs = compose(relabel(x, phi_x), "hole",
                                          relabel(y, {v: phi[v] for v in y.carrier}))
                            if lhs != rhs:
                                report.add("relabel", (repr(x), a, repr(y), perm))
    if which == "pairs":
        report.details["seq_cases"] = len(seq_cases)
        report.details["par_cases"] = len(par_cases)
    report.details["instances"] = instances
    return report


# ---------------------------------------------------------------------------
# The pairs operad as the quotient of binary terms by the twist law


def monomial_eval(term, dec: dict) -> TwistedMonomial:
    """Evaluate a binary term with decorated leaves in the twisted
    monomial model."""
    if isinstance(term, int):
        return TwistedMonomial.generator(dec[term])
    return twisted_product(monomial_eval(term[1], dec), monomial_eval(term[2], dec))


def pair_eval(term) -> PairElement:
    """Evaluate a leaf-labeled binary term in the pairs operad."""
    if isinstance(term, int):
        return PairElement(frozenset({term}))
    return binary_product("pairs", pair_eval(term[1]), pair_eval(term[2]))


def _psi_term(x: PairElement):
    """Invert pair_eval on classes: peel the first component off until the
    pair sits on two labels."""
    if x.is_unit:
        return next(iter(x.carrier))
    a1, a2 = x.value
    if len(x.carrier) == 2:
        return ("mul", a1, a2)
    rest = x.carrier - {a1}
    a1_new = min(v for v in rest if v != a2)
    return ("mul", a1, _psi_term(PairElement(rest, (a1_new, a2))))


def psi_phi_roundtrip(max_arity: int = 4) -> LawReport:
    """Check that the twist-law quotient of leaf-labeled binary terms and
    the pairs operad invert each other up to the arity bound, and that the
    class counts equal n(n-1) for n >= 2."""
    if max_arity < 1:
        raise ValueError("max_arity must be at least 1")
    if max_arity > 5:
        raise ResourceBoundError("max_arity must be <= 5")
    p = presentations.preset("twist")
    report = LawReport(kind="twist_iso")
    counts = []
    for n in range(1, max_arity + 1):
        classes = presentations.quotient_classes(p, n)
        counts.append(len(classes))
        expected = 1 if n == 1 else n * (n - 1)
        if len(classes) != expected:
            report.add("class_count", (n, len(classes), expected))
        carrier = frozenset(range(1, n + 1))
        pairs = pair_elements(carrier)
        images = []
        for cls in classes:
            values = {pair_eval(t) for t in cls}
            if len(values) != 1:
                report.add("phi_not_constant", (n, presentations.serialize_term(cls[0])))
                continue
            images.append(values.pop())
        if sorted(map(repr, images)) != sorted(map(repr, pairs)):
            report.add("phi_not_bijective", (n,))
        for x in pairs:
            term = _psi_term(x)
            if pair_eval(term) != x:
                report.add("phi_psi", (n, repr(x)))
            cls_index = next((i for i, cls in enumerate(classes) if term in cls), None)
            if cls_index is None:
                report.add("psi_image_missing", (n, repr(x)))
        for i, cls in enumerate(classes):
            rep = cls[0]
            back = _psi_term(pair_eval(rep))
            if back not in cls:
                report.add("psi_phi", (n, presentations.serialize_term(rep)))
    report.details["class_counts"] = counts
    return report


# ---------------------------------------------------------------------------
# Surjections onto the perm operad


def _to_perm(which: str, x) -> PermPoint:
    if which == "pairs":
        value = next(iter(x.carrier)) if x.is_unit else x.value[1]
        return PermPoint(x.carrier, value)
    if which == "corollas":
        return PermPoint(x.carrier, x.root)
    return PermPoint(x.carrier, x.sequence[-1])


def perm_surjection(which: str, max_size: int = 3) -> LawReport:
    """Verify that the candidate map to perm points commutes with every
    partial composition up to the bound and is surjective.  Over
    ``LAW_BUDGET`` instances, counted first, raise ``ResourceBoundError``."""
    if which not in ("pairs", "corollas", "orders"):
        raise ValueError(f"no perm map for {which!r}")
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    # Each (x, a, y) is one instance: (sum of n_s * s) * (sum of n_s) in all.
    weighted = total = 0
    for s in range(1, max_size + 1):
        n = _element_count(which, s)
        weighted, total = weighted + n * s, total + n
        if weighted * total > LAW_BUDGET:
            raise ResourceBoundError(f"{which} at max {max_size}: over {LAW_BUDGET} instances")
    compose = _OPERADS[which][1]
    elements, positions = _carriers(which, max_size)
    report = LawReport(kind=f"{which}_to_perm")
    instances = 0
    for sa in range(1, max_size + 1):
        for sb in range(1, max_size + 1):
            for x in elements[0, sa]:
                for a in positions[0, sa]:
                    for y in elements[1, sb]:
                        instances += 1
                        lhs = _to_perm(which, compose(x, a, y))
                        rhs = perm_compose(_to_perm(which, x), a, _to_perm(which, y))
                        if lhs != rhs:
                            report.add("morphism", (repr(x), a, repr(y)))
        image = {_to_perm(which, x) for x in elements[0, sa]}
        if image != set(perm_elements(positions[0, sa])):
            report.add("surjectivity", (sa,))
    report.details["instances"] = instances
    return report
