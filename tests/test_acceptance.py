"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import random
import time

from famop import dims, duplicial, linear, omega, operads, presentations, trees

PASS = "PASS"


def _verdict(n, ok, label):
    print(f"{PASS if ok else 'FAIL'}: criterion {n} - {label}")
    assert ok, label


REFERENCE_POLYS = {
    1: (1,),
    2: (0, 0, 2),
    3: (0, 0, 0, -3, 8),
    4: (0, 0, 0, 0, 4, -30, 40),
    5: (0, 0, 0, 0, 0, -5, 75, -252, 224),
    6: (0, 0, 0, 0, 0, 0, 6, -154, 952, -2016, 1344),
    7: (0, 0, 0, 0, 0, 0, 0, -7, 280, -2772, 10320, -15840, 8448),
    8: (0, 0, 0, 0, 0, 0, 0, 0, 8, -468, 6840, -39270, 102960, -123552, 54912),
}


def test_criterion_1_dimension_table():
    start = time.monotonic()
    series = dims.r_sequence(8)
    ok = all(series.r(n).coeffs == REFERENCE_POLYS[n] for n in range(1, 9))
    elapsed = time.monotonic() - start
    _verdict(1, ok and elapsed < 1.0,
             f"dimension polynomials r_1..r_8 exact ({elapsed:.3f}s)")


def test_criterion_2_cubic_identity():
    series = dims.r_sequence(8)
    residual = dims.cubic_residual(series)
    ok = len(residual) == 9 and all(not p for p in residual)
    _verdict(2, ok, "cubic series identity has zero residual through X^8")


def test_criterion_3_specializations():
    series = dims.r_sequence(8)
    ok = [p(1) for p in series.polys] == [1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(1, 9):
        p = series.r(n)
        ok = ok and p.degree == 2 * n - 2
        ok = ok and p.leading == 2 ** (n - 1) * dims.catalan(n)
        if n >= 2:
            ok = ok and p.divisible_by_power(n)
            ok = ok and p.shift(-n).coeffs[0] == (-1) ** n * n
    _verdict(3, ok, "values at w=1, degrees, leading coefficients, divisibility")


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    series = dims.r_sequence(6)
    ok = all(dims.count_basis_trees(n, w) == series.r(n)(w)
             for n in range(1, 7) for w in range(1, 4))
    by_formula = 2 * 3 ** 6 * (672 * 81 - 1008 * 27 + 476 * 9 - 77 * 3 + 3)
    ok = ok and series.r(6)(3) == by_formula
    ok = ok and dims.count_basis_trees(6, 3) == by_formula
    elapsed = time.monotonic() - start
    _verdict(4, ok and elapsed < 60.0,
             f"pattern-avoiding counts equal r_n(w) for n<=6, w<=3 ({elapsed:.2f}s)")


def test_criterion_5_twist_operad_laws():
    report = operads.check_operad_laws("pairs", 3)
    ok = report.passed and report.details["seq_cases"] == 9 \
        and report.details["par_cases"] == 7
    _verdict(5, ok, "pairs operad associativity with the 9+7 case partition")


def test_criterion_6_twist_isomorphism():
    report = operads.psi_phi_roundtrip(4)
    ok = report.passed and report.details["class_counts"] == [1, 2, 6, 12]
    _verdict(6, ok, "twist-quotient classes biject with pairs up to arity 4")


def test_criterion_7_corolla_perm_laws_and_surjections():
    ok = operads.check_operad_laws("corollas", 6).passed
    ok = ok and operads.check_operad_laws("perm", 4).passed
    ok = ok and operads.perm_surjection("pairs", 3).passed
    ok = ok and operads.perm_surjection("corollas", 4).passed
    ok = ok and operads.perm_surjection("orders", 3).passed
    _verdict(7, ok, "corolla and perm laws; the three surjections onto perm")


def test_criterion_8_presented_quotients():
    expected = {"duplicial": [2, 5, 14], "dendriform": [2, 3, 4],
                "prelie": [2, 3, 4]}
    ok = True
    for name, counts in expected.items():
        p = presentations.preset(name)
        got = [len(presentations.quotient_classes(p, n)) for n in (2, 3, 4)]
        ok = ok and got == counts
    _verdict(8, ok, "quotient class counts at arities 2..4")


def test_criterion_9_typed_tree_axioms():
    start = time.monotonic()
    duplicials = (omega.enumerate_structures(1, "duplicial")
                  + omega.enumerate_structures(2, "duplicial"))
    ok = all(duplicial.check_axioms("two_param", s, max_vertices=3).passed
             for s in duplicials)

    all_edus = omega.enumerate_structures(2, "edus")
    ok = ok and all(
        duplicial.check_axioms("one_param", s, max_vertices=3).passed
        for s in all_edus)

    tables = [tuple(tuple(cells[i * 2:(i + 1) * 2]) for i in range(2))
              for cells in itertools.product(range(2), repeat=4)]
    edus_count = graded_count = 0
    iff_ok = True
    for la in tables:
        for ra in tables:
            for lt in tables:
                for rt in tables:
                    e_ok = omega.edus_passes(la, ra, lt, rt, 2)
                    s = omega.OmegaStructure(2, la, ra, lt, rt)
                    g_ok = duplicial.check_axioms(
                        "graded", s, max_vertices=2,
                        first_witness_only=True).passed
                    edus_count += e_ok
                    graded_count += g_ok
                    iff_ok = iff_ok and (e_ok == g_ok)
    ok = ok and iff_ok and edus_count == graded_count == len(all_edus)
    elapsed = time.monotonic() - start
    _verdict(9, ok and elapsed < 300.0,
             f"tree axioms: {len(duplicials)} duplicial, {len(all_edus)} "
             f"extended structures, graded iff over 65536 candidates "
             f"({elapsed:.1f}s)")


def test_criterion_10_free_algebra_universal_property():
    e = omega.enumerate_structures(2, "edus")[60]
    target = duplicial.FreeAlgebraTarget(e)
    gen = duplicial.tree_generator
    pool = []
    for n in (1, 2):
        pool.extend(trees.enumerate_trees(n, 1, 2, "single"))
    image = {"x0": duplicial.prec1(gen("a"), gen("b"), 1, e)}
    f = image.__getitem__
    ok = True
    for t, u in itertools.product(pool, repeat=2):
        for w in range(2):
            bar_t = duplicial.free_morphism_eval(f, target, t)
            bar_u = duplicial.free_morphism_eval(f, target, u)
            ok = ok and duplicial.free_morphism_eval(
                f, target, duplicial.prec1(t, u, w, e)) == \
                target.prec(bar_t, w, bar_u)
            ok = ok and duplicial.free_morphism_eval(
                f, target, duplicial.succ1(t, u, w, e)) == \
                target.succ(bar_t, w, bar_u)
    for n in (1, 2, 3):
        for t in trees.enumerate_trees(n, 1, 2, "single"):
            ok = ok and duplicial.free_morphism_eval(gen, target, t) == t
    _verdict(10, ok, "induced morphism is a homomorphism and fixes the "
                     "canonical embedding")


def test_criterion_11_property_suites():
    ok = True
    # twist identity for pairs
    pools = [operads.pair_elements(frozenset({f"{c}{i}" for i in range(n)}))
             for c, n in (("a", 1), ("b", 2), ("c", 3))]
    for x, y, z in itertools.product(*pools):
        lhs = operads.binary_product(
            "pairs", x, operads.binary_product("pairs", y, z))
        rhs = operads.binary_product(
            "pairs", operads.binary_product("pairs", y, x), z)
        ok = ok and lhs == rhs
    # twist identity for monomials
    rng = random.Random(23)
    letters = "pq"

    def monomial():
        return omega.TwistedMonomial(rng.choice(letters), rng.choice(letters),
                                     {d: rng.randint(0, 2) for d in letters})

    for _ in range(100):
        x, y, z = monomial(), monomial(), monomial()
        ok = ok and omega.twisted_product(x, omega.twisted_product(y, z)) == \
            omega.twisted_product(omega.twisted_product(y, x), z)
    # NAP + NAP' for corollas
    pools = [operads.corolla_elements(frozenset({f"{c}{i}" for i in range(n)}))
             for c, n in (("a", 2), ("b", 2), ("c", 2))]
    for x, y, z in itertools.product(*pools):
        bp = lambda u, v: operads.binary_product("corollas", u, v)
        ok = ok and bp(x, bp(y, z)) == bp(y, bp(x, z))
        ok = ok and bp(bp(x, y), z) == bp(bp(y, x), z)
    # NAP + NAP' for multisets
    for _ in range(100):
        ms = [omega.NatMultiset(tuple(rng.randint(1, 4)
                                      for _ in range(rng.randint(0, 3))))
              for _ in range(3)]
        x, y, z = ms
        mp = omega.multiset_product
        ok = ok and mp(x, mp(y, z)) == mp(y, mp(x, z))
        ok = ok and mp(mp(x, y), z) == mp(mp(y, x), z)
    # codec round-trips
    for flavor, w in (("single", 2), ("pair", 2)):
        for n in range(5):
            for t in trees.enumerate_trees(n, 1, w, flavor):
                ok = ok and trees.parse(trees.serialize(t)) == t
    # enumeration count formulas
    for flavor in ("single", "pair"):
        for n in range(5):
            for x_size, w in ((1, 1), (1, 2), (2, 2)):
                got = len(trees.enumerate_trees(n, x_size, w, flavor))
                ok = ok and got == trees.expected_tree_count(n, x_size, w, flavor)
    _verdict(11, ok, "twist/NAP identities, codec round-trips, count formulas")
