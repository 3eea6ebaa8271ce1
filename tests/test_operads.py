"""Set operads: compositions, laws, the pairs/terms roundtrip, surjections."""
import itertools
import time

import pytest

from famop import operads, presentations
from famop.errors import PreconditionError, ResourceBoundError
from famop.omega import NatMultiset, TwistedMonomial, multiset_product
from famop.operads import (Corolla, LinearOrder, PairElement, PermPoint,
                           binary_product, check_operad_laws, corolla_compose,
                           corolla_elements, monomial_eval, order_compose,
                           order_elements, pair_elements, perm_compose,
                           perm_elements, perm_surjection, psi_phi_roundtrip,
                           twist_compose)


def P(carrier, value=None):
    return PairElement(frozenset(carrier), value)


def test_twist_compose_pins():
    assert twist_compose(P({1, 2}, (1, 2)), 2, P({"a", "b"}, ("a", "b"))).value \
        == (1, "b")
    assert twist_compose(P({1, 2}, (1, 2)), 1, P({"a", "b"}, ("b", "a"))).value \
        == ("a", 2)
    off = twist_compose(P({1, 2, 3}, (1, 2)), 3, P({"a", "b"}, ("a", "b")))
    assert off.value == (1, 2)
    assert off.carrier == frozenset({1, 2, "a", "b"})


def test_twist_compose_validation():
    with pytest.raises(ValueError):
        twist_compose(P({1, 2}, (1, 2)), 3, P({"a"}))
    with pytest.raises(ValueError):
        twist_compose(P({1, 2}, (1, 2)), 1, P({2, 5}, (2, 5)))
    with pytest.raises(ValueError):
        PairElement(frozenset({1, 2}), (1, 1))
    with pytest.raises(ValueError):
        PairElement(frozenset({1, 2}))


def test_corolla_compose_pins():
    beta = Corolla("a", [{"b", "c"}, {"d"}, {"e", "f", "g"}])
    gamma = Corolla(1, [{2, 3}, {4, 5, 6}])
    root_case = corolla_compose(beta, "a", gamma)
    assert root_case.root == 1
    assert root_case.branches == frozenset(map(frozenset, [
        {"b", "c"}, {"d"}, {"e", "f", "g"}, {2, 3}, {4, 5, 6}]))
    branch_case = corolla_compose(beta, "e", gamma)
    assert branch_case.root == "a"
    assert branch_case.branches == frozenset(map(frozenset, [
        {"b", "c"}, {"d"}, {"f", "g", 1, 2, 3, 4, 5, 6}]))


def test_singleton_corolla_composition():
    a = Corolla("a")
    b = Corolla("b")
    assert corolla_compose(a, "a", b) == b
    two = binary_product("corollas", a, b)
    assert two == Corolla("b", [{"a"}])


def test_perm_compose_table():
    x = PermPoint(frozenset({1, 2}), 1)
    y = PermPoint(frozenset({3, 4}), 4)
    assert perm_compose(x, 1, y).value == 4
    assert perm_compose(x, 2, y).value == 1
    u = PermPoint(frozenset({9}), 9)
    assert perm_compose(u, 9, y) == y


def test_binary_product_closed_forms_for_pairs():
    unit = P({"s"})
    xy = P({"x", "y"}, ("x", "y"))
    zt = P({"z", "t"}, ("z", "t"))
    assert binary_product("pairs", unit, xy).value == ("s", "y")
    assert binary_product("pairs", xy, P({"u"})).value == ("y", "u")
    assert binary_product("pairs", xy, zt).value == ("y", "t")
    u2 = binary_product("pairs", unit, P({"u"}))
    assert u2.value == ("s", "u")


def test_binary_product_model_dispatch():
    assert binary_product("multisets", NatMultiset((2,)), NatMultiset((3,))) \
        == NatMultiset((3, 3))
    got = binary_product("twisted_monomials", TwistedMonomial("d", "d"),
                         TwistedMonomial("e", "e"))
    assert got == TwistedMonomial("d", "e", {"d": 1, "e": 1})
    with pytest.raises(TypeError):
        binary_product("nonsense", NatMultiset(), NatMultiset())
    with pytest.raises(TypeError):
        binary_product("multisets", TwistedMonomial("d", "d"), NatMultiset())
    with pytest.raises(TypeError):
        binary_product("twisted_monomials", NatMultiset(), NatMultiset())


@pytest.mark.parametrize("which", ["pairs", "corollas", "perm", "orders"])
def test_binary_product_refuses_operands_that_are_not_the_operads_elements(which):
    on_b = {name: op.elements(frozenset({"b"}))[0] for name, op in operads._OPERADS.items()}
    mine = operads._OPERADS[which].elements(frozenset({"a"}))[0]
    others = [x for name, x in on_b.items() if name != which]
    for bad in (*others, NatMultiset(), TwistedMonomial("d", "d"), 1, None, frozenset({"b"})):
        with pytest.raises(TypeError, match=which):
            binary_product(which, mine, bad)
        with pytest.raises(TypeError, match=which):
            binary_product(which, bad, mine)
    assert binary_product(which, mine, on_b[which]).carrier == {"a", "b"}


def test_twist_identity_for_pairs_at_small_sizes():
    carriers = [frozenset({"a1"}), frozenset({"b1", "b2"}),
                frozenset({"c1", "c2", "c3"})]
    pools = [pair_elements(c) for c in carriers]
    for x, y, z in itertools.product(*pools):
        lhs = binary_product("pairs", x, binary_product("pairs", y, z))
        rhs = binary_product("pairs", binary_product("pairs", y, x), z)
        assert lhs == rhs


def test_nap_identities_for_corollas_at_small_sizes():
    pools = [corolla_elements(frozenset({"a1"})),
             corolla_elements(frozenset({"b1", "b2"})),
             corolla_elements(frozenset({"c1", "c2", "c3"}))]
    for x, y, z in itertools.product(*pools):
        assert binary_product("corollas", x, binary_product("corollas", y, z)) \
            == binary_product("corollas", y, binary_product("corollas", x, z))
        assert binary_product(
            "corollas", binary_product("corollas", x, y), z) \
            == binary_product("corollas", binary_product("corollas", y, x), z)


def test_pair_counts():
    assert len(pair_elements(frozenset({1}))) == 1
    for n in (2, 3, 4):
        assert len(pair_elements(frozenset(range(n)))) == n * (n - 1)


def test_corolla_counts():
    assert [len(corolla_elements(frozenset(range(n)))) for n in (1, 2, 3, 4)] \
        == [1, 2, 6, 20]


def test_operad_laws_pairs():
    report = check_operad_laws("pairs", 3)
    assert report.passed
    assert report.details["seq_cases"] == 9
    assert report.details["par_cases"] == 7
    assert report.details["instances"] == 19758


def test_operad_laws_pairs_4():
    report = check_operad_laws("pairs", 4)
    assert report.passed
    assert (report.details["seq_cases"], report.details["par_cases"]) == (9, 7)
    assert report.details["instances"] == 363558


def test_operad_law_instances_are_the_budget_count_plus_the_relabel_scan():
    # seq + par + units + sum n_p p n_q (p + q - 1)! over p, q <= min(top, 2)
    assert [check_operad_laws(which, 3).details["instances"]
            for which in ("pairs", "corollas", "perm", "orders")] == [19758, 94, 2049, 8094]


def test_operad_law_bound():
    with pytest.raises(ValueError):
        check_operad_laws("perm", 0)
    for which, max_size in (("pairs", 5), ("corollas", 10), ("orders", 4), ("perm", 10**9)):
        with pytest.raises(ResourceBoundError):
            check_operad_laws(which, max_size)


def test_element_counts_have_closed_forms():
    for op in operads._OPERADS.values():
        for n in range(1, 8):
            assert op.count(n) == len(op.elements(frozenset(range(n))))


def test_operad_law_bound_is_checked_before_any_carrier_is_built(monkeypatch):
    def unbuildable(carrier):
        raise AssertionError("a carrier was built")

    monkeypatch.setitem(operads._OPERADS, "corollas",
                        operads._OPERADS["corollas"]._replace(elements=unbuildable))
    start = time.perf_counter()
    with pytest.raises(ResourceBoundError):
        check_operad_laws("corollas", 9)
    assert time.perf_counter() - start < 0.1


def _literal_associativity(which, max_size, compose):
    """The sequential and parallel witnesses of ``check_operad_laws``, every
    composition made afresh for every instance."""
    elements_of = operads._OPERADS[which].elements
    top = max_size + (which == "pairs")

    def carriers(first_top):
        for sizes in itertools.product(range(1, first_top + 1), range(1, max_size + 1),
                                       range(1, max_size + 1)):
            if which != "corollas" or sum(sizes) <= max_size:
                yield [frozenset(f"{name}{j}" for j in range(n))
                       for name, n in zip("abc", sizes)]

    out = []
    for xs, ys, zs in carriers(max_size):
        for x, a, y, b, z in itertools.product(elements_of(xs), sorted(xs), elements_of(ys),
                                               sorted(ys), elements_of(zs)):
            if compose(compose(x, a, y), b, z) != compose(x, a, compose(y, b, z)):
                out.append(("sequential", (repr(x), a, repr(y), b, repr(z))))
    for xs, ys, zs in carriers(top):
        for x in elements_of(xs):
            for (a, a2), y, z in itertools.product(itertools.permutations(sorted(xs), 2),
                                                   elements_of(ys), elements_of(zs)):
                if compose(compose(x, a, y), a2, z) != compose(compose(x, a2, z), a, y):
                    out.append(("parallel", (repr(x), a, repr(y), a2, repr(z))))
    return out


def _swapped_when_plugged_at_the_head(x, a, y):
    """Pair composition with the result reversed when y goes in at x's head:
    a valid element, but not an operad."""
    out = twist_compose(x, a, y)
    if not x.is_unit and not y.is_unit and a == x.value[0]:
        return PairElement(out.carrier, out.value[::-1])
    return out


def _star_when_plugged_at_the_root(x, a, y):
    """Corolla composition that flattens the result to singleton branches
    when y goes in at x's root."""
    out = corolla_compose(x, a, y)
    if a == x.root and y.branches:
        return Corolla(out.root, {frozenset({v}) for v in out.carrier - {out.root}})
    return out


def _last_plugged_point(x, a, y):
    """Perm composition that always keeps y's point."""
    return PermPoint(perm_compose(x, a, y).carrier, y.value)


def _block_reversed(x, a, y):
    """Order composition that inserts y's sequence backwards."""
    i = x.sequence.index(a)
    return LinearOrder(x.sequence[:i] + y.sequence[::-1] + x.sequence[i + 1:])


WRONG = (_swapped_when_plugged_at_the_head, _star_when_plugged_at_the_root,
         _last_plugged_point, _block_reversed)


@pytest.mark.parametrize("which,max_size,compose", [
    ("pairs", 3, _swapped_when_plugged_at_the_head),
    ("pairs", 3, twist_compose),
    ("corollas", 5, _star_when_plugged_at_the_root),
    ("corollas", 5, corolla_compose),
    ("perm", 3, _last_plugged_point),
    ("perm", 3, perm_compose),
    ("orders", 3, _block_reversed),
    ("orders", 3, order_compose),
])
def test_hoisted_scan_matches_the_literal_scan(monkeypatch, which, max_size, compose):
    monkeypatch.setitem(operads._OPERADS, which, operads._OPERADS[which]._replace(compose=compose))
    report = check_operad_laws(which, max_size)
    expected = _literal_associativity(which, max_size, compose)
    assert [w for w in report.witnesses if w[0] in ("sequential", "parallel")] == expected
    assert bool(expected) == (compose in WRONG)


@pytest.mark.parametrize("which,max_size", [("pairs", 3), ("corollas", 5)])
def test_each_distinct_composition_is_made_once_per_first_factor(monkeypatch, which,
                                                                 max_size):
    compose = operads._OPERADS[which].compose
    received = []

    def recording(x, a, y):
        received.append((x, a, y))
        return compose(x, a, y)

    scopes = []
    make_table = operads._CompositionTable

    def scoped_table(compose, elements):
        seen = []
        scopes.append(seen)
        return make_table(lambda x, a, y: seen.append((x, a, y)) or compose(x, a, y), elements)

    monkeypatch.setitem(operads._OPERADS, which, operads._OPERADS[which]._replace(compose=recording))
    monkeypatch.setattr(operads, "_CompositionTable", scoped_table)
    assert check_operad_laws(which, max_size).passed
    literal = set()
    _literal_associativity(which, max_size,
                           lambda x, a, y: literal.add((x, a, y)) or compose(x, a, y))
    # The unit and relabel sections compose outside the scans, on "u0" and "hole".
    in_scans = {(x, a, y) for x, a, y in received
                if a != "hole" and "u0" not in x.carrier | y.carrier}
    assert in_scans == literal
    assert set().union(*scopes) == literal
    assert all(len(set(scope)) == len(scope) for scope in scopes)


def test_operad_laws_corollas_total_6():
    assert check_operad_laws("corollas", 6).passed


def test_operad_laws_perm():
    assert check_operad_laws("perm", 4).passed


def test_operad_laws_orders():
    assert check_operad_laws("orders", 3).passed


def test_psi_phi_roundtrip():
    report = psi_phi_roundtrip(4)
    assert report.passed
    assert report.details["class_counts"] == [1, 2, 6, 12]


def test_psi_phi_roundtrip_bounds():
    for arity in (0, -1):
        with pytest.raises(ValueError):
            psi_phi_roundtrip(arity)
    with pytest.raises(ResourceBoundError):
        psi_phi_roundtrip(6)


def test_psi_phi_arity_2_generators():
    p = presentations.preset("twist")
    classes = presentations.quotient_classes(p, 2)
    assert [presentations.serialize_term(c[0]) for c in classes] \
        == ["(mul 1 2)", "(mul 2 1)"]
    images = [operads.pair_eval(c[0]).value for c in classes]
    assert sorted(images) == [(1, 2), (2, 1)]


def test_perm_surjections():
    for which in ("pairs", "orders"):
        report = perm_surjection(which, 3)
        assert report.passed, report.witnesses[:3]
    assert perm_surjection("corollas", 4).passed
    assert [perm_surjection(*args).details["instances"]
            for args in (("pairs", 3), ("corollas", 4), ("orders", 3))] == [207, 2987, 207]


@pytest.mark.parametrize("which,max_size,error", [
    ("nonsense", 3, ValueError), ("perm", 3, ValueError), ("pairs", 0, ValueError),
    ("corollas", 7, ResourceBoundError), ("orders", 10**9, ResourceBoundError),
])
def test_perm_surjection_refuses_bad_arguments(which, max_size, error):
    with pytest.raises(error):
        perm_surjection(which, max_size)


def test_order_composition_inserts_blocks():
    x = LinearOrder(("a", "b", "c"))
    y = LinearOrder(("p", "q"))
    assert order_compose(x, "b", y).sequence == ("a", "p", "q", "c")
    assert len(order_elements(frozenset({1, 2, 3}))) == 6


def test_monomial_eval_is_constant_on_twist_classes():
    p = presentations.preset("twist")
    for arity in (3, 4):
        classes = presentations.quotient_classes(p, arity)
        for dec_choice in itertools.product("uv", repeat=arity):
            dec = {i + 1: dec_choice[i] for i in range(arity)}
            for cls in classes:
                values = {monomial_eval(t, dec) for t in cls}
                assert len(values) == 1


def test_element_json_roundtrip():
    samples = [
        ("pairs", P({1, 2, 3}, (1, 3))),
        ("pairs", P({"s"})),
        ("corollas", Corolla("a", [{"b", "c"}, {"d"}])),
        ("perm", PermPoint(frozenset({1, 2}), 2)),
        ("orders", LinearOrder(("a", "b", "c"))),
    ]
    for which, x in samples:
        data = operads.element_to_json(x)
        assert operads.element_from_json(which, data) == x


@pytest.mark.parametrize("which,data", [
    ("pairs", {}), ("corollas", {"root": 1}), ("pairs", {"A": 5, "v": "unit"}),
    ("orders", {"order": 5}), ("pairs", {"A": [1, 2], "v": [1]}),
    ("pairs", {"A": [[1]], "v": "unit"}), ("corollas", {"root": [1], "branches": []}),
    ("corollas", {"root": 1, "branches": 5}), ("corollas", {"root": 1, "branches": [5]}),
    ("perm", {"A": [1], "v": {}}), ("perm", [1]), ("orders", None),
])
def test_malformed_element_json_raises_precondition_error(which, data):
    with pytest.raises(PreconditionError):
        operads.element_from_json(which, data)


def test_monomial_eval_is_a_product_homomorphism():
    t1 = ("mul", 1, 2)
    t2 = ("mul", ("mul", 3, 4), 5)
    dec = {1: "u", 2: "v", 3: "u", 4: "u", 5: "v"}
    joined = ("mul", t1, t2)
    assert monomial_eval(joined, dec) == operads.binary_product(
        "twisted_monomials", monomial_eval(t1, dec), monomial_eval(t2, dec))
