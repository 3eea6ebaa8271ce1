"""Reference answers the benchmark checks famop's outputs against.

Everything here is either a published value or a value pinned from the
seed commit and labelled as such.  The benchmark never computes these
with famop itself, so a wrong answer from famop cannot hide behind a
matching wrong reference.  ``tamper`` exists for the benchmark's own
self-test: it corrupts one value per workload, and the gate must then
report a failure.
"""
from __future__ import annotations

import itertools
import math

# OEIS A023814: labeled semigroups (associative magmas) on n elements.
A023814 = {1: 1, 2: 8, 3: 113, 4: 3492}

# enumerate_structures counts.  Associative from A023814; duplicial 1401 and
# 201501, EDUS 63141 and diassociative 267 from the paper's census.  The
# twist, NAP+NAP' and perm counts at size 3 are pinned from the seed commit.
ENUMERATION_COUNTS = {
    (3, "associative"): A023814[3],
    (3, "twist_associative"): 91,    # pinned from the seed commit
    (3, "napnapprime"): 177,         # pinned from the seed commit
    (3, "perm"): 85,                 # pinned from the seed commit
    (3, "diassociative"): 267,
    (3, "duplicial"): 1401,
    (3, "edus"): 63141,
    (4, "associative"): A023814[4],
    (4, "duplicial"): 201501,
}

# Extended duplicial semigroups of size 2 (the graded iff population).
EDUS_SIZE_2 = 205

# r_1..r_8 as coefficient tuples in w, lowest degree first.
R_POLYS = {
    1: (1,),
    2: (0, 0, 2),
    3: (0, 0, 0, -3, 8),
    4: (0, 0, 0, 0, 4, -30, 40),
    5: (0, 0, 0, 0, 0, -5, 75, -252, 224),
    6: (0, 0, 0, 0, 0, 0, 6, -154, 952, -2016, 1344),
    7: (0, 0, 0, 0, 0, 0, 0, -7, 280, -2772, 10320, -15840, 8448),
    8: (0, 0, 0, 0, 0, 0, 0, 0, 8, -468, 6840, -39270, 102960, -123552, 54912),
}


# The extended duplicial semigroup laws: U1-U3 on the arrows la/ra, the
# absorption laws E0/E00, E1/E2 for the left triangle lt and E3/E4 for the
# right triangle rt.  A term is a variable 0..2 or (table, left, right).
EDUS_LAWS = {
    "U1": (("la", ("la", 0, 1), 2), ("la", 0, ("la", 1, 2))),
    "U2": (("la", ("ra", 0, 1), 2), ("ra", 0, ("la", 1, 2))),
    "U3": (("ra", ("ra", 0, 1), 2), ("ra", 0, ("ra", 1, 2))),
    "E0": (("rt", 0, ("la", 1, 2)), ("rt", 0, 1)),
    "E00": (("lt", ("ra", 0, 1), 2), ("lt", 1, 2)),
    "E1": (("la", ("lt", 0, 1), ("lt", ("la", 0, 1), 2)), ("lt", 0, ("la", 1, 2))),
    "E2": (("lt", ("lt", 0, 1), ("lt", ("la", 0, 1), 2)), ("lt", 1, 2)),
    "E3": (("rt", ("rt", 0, ("ra", 1, 2)), ("rt", 1, 2)), ("rt", 0, 1)),
    "E4": (("ra", ("rt", 0, ("ra", 1, 2)), ("rt", 1, 2)), ("rt", ("ra", 0, 1), 2)),
}


def _value(term, tables, args):
    if isinstance(term, int):
        return args[term]
    op, left, right = term
    return tables[op][_value(left, tables, args)][_value(right, tables, args)]


def _holds(names, tables, size) -> bool:
    for args in itertools.product(range(size), repeat=3):
        for name in names:
            lhs, rhs = EDUS_LAWS[name]
            if _value(lhs, tables, args) != _value(rhs, tables, args):
                return False
    return True


def all_tables(size: int) -> list:
    """Every size x size table, in lexicographic order of its cells."""
    return [tuple(cells[i * size:(i + 1) * size] for i in range(size))
            for cells in itertools.product(range(size), repeat=size * size)]


def edus_quadruples(size: int) -> set:
    """All (la, ra, lt, rt) satisfying the nine laws.  The lt laws read only
    la, ra and lt, the rt laws only la, ra and rt, so the triangles are
    chosen independently for each arrow pair."""
    tables = all_tables(size)
    out = set()
    for la, ra in itertools.product(tables, repeat=2):
        arrows = {"la": la, "ra": ra}
        if not _holds(("U1", "U2", "U3"), arrows, size):
            continue
        lts = [lt for lt in tables
               if _holds(("E00", "E1", "E2"), {**arrows, "lt": lt}, size)]
        rts = [rt for rt in tables
               if _holds(("E0", "E3", "E4"), {**arrows, "rt": rt}, size)]
        out.update((la, ra, lt, rt) for lt in lts for rt in rts)
    return out


def catalan(k: int) -> int:
    """Catalan numbers indexed so that catalan(1) = catalan(2) = 1."""
    return math.comb(2 * k - 2, k - 1) // k


def poly_at(coeffs, w: int) -> int:
    return sum(c * w ** i for i, c in enumerate(coeffs))


def quotient_class_count(preset: str, arity: int) -> int:
    """Class counts of the presented quotients at one arity."""
    if preset == "associative":
        return 1
    if preset == "duplicial":
        return catalan(arity + 1)
    if preset in ("dendriform", "prelie"):
        return arity
    if preset == "twist":
        return 1 if arity == 1 else arity * (arity - 1)
    raise ValueError(f"no reference for preset {preset!r}")


# Arity bounds of the presets: planar presets stop at 6, labeled ones at 5.
PRESET_ARITY_BOUND = {"associative": 6, "duplicial": 6, "dendriform": 6,
                      "prelie": 5, "twist": 5}


def tamper(workload: str) -> None:
    """Corrupt one reference value of ``workload`` (self-test only)."""
    if workload == "graded_iff":
        global EDUS_SIZE_2
        EDUS_SIZE_2 += 1
    elif workload == "table_census":
        ENUMERATION_COUNTS[(3, "associative")] += 1
    elif workload == "exact_algebra":
        R_POLYS[3] = (0, 0, 0, -3, 9)
    elif workload == "cli_cold":
        A023814[2] += 1
    else:
        raise ValueError(f"unknown workload {workload!r}")
