"""Dimension polynomials: recurrence pins, series identity, counting oracle."""
import itertools

import pytest

from famop import dims
from famop.dims import (IntPoly, catalan, count_basis_trees, cubic_residual,
                        evaluate, r_sequence, verify_identities)
from famop.errors import PreconditionError, ResourceBoundError
from famop.omega import OmegaStructure, ds_projections

# The eight reference polynomials, ascending coefficients.
REFERENCE = {
    1: (1,),
    2: (0, 0, 2),
    3: (0, 0, 0, -3, 8),
    4: (0, 0, 0, 0, 4, -30, 40),
    5: (0, 0, 0, 0, 0, -5, 75, -252, 224),
    6: (0, 0, 0, 0, 0, 0, 6, -154, 952, -2016, 1344),
    7: (0, 0, 0, 0, 0, 0, 0, -7, 280, -2772, 10320, -15840, 8448),
    8: (0, 0, 0, 0, 0, 0, 0, 0, 8, -468, 6840, -39270, 102960, -123552, 54912),
}


def test_reference_polynomials():
    series = r_sequence(8)
    for n, coeffs in REFERENCE.items():
        assert series.r(n).coeffs == coeffs


def test_catalan_indexing():
    assert [catalan(k) for k in range(1, 7)] == [1, 1, 2, 5, 14, 42]


def test_cubic_residual_vanishes():
    series = r_sequence(8)
    assert all(not p for p in cubic_residual(series))


def test_specializations_at_one():
    series = r_sequence(8)
    assert [p(1) for p in series.polys] == [1, 2, 5, 14, 42, 132, 429, 1430]


def test_degree_leading_and_divisibility():
    series = r_sequence(8)
    for n in range(1, 9):
        p = series.r(n)
        assert p.degree == 2 * n - 2
        assert p.leading == 2 ** (n - 1) * catalan(n)
        if n >= 2:
            assert p.divisible_by_power(n)
            t = p.shift(-n)
            assert t.coeffs[0] == (-1) ** n * n
        if n % 2 == 0:
            assert all(c % 2 == 0 for c in p.coeffs)


def test_verify_identities_report():
    report = verify_identities(8)
    assert report.passed
    assert report.details["order"] == 8


def _literal_residual(series):
    """cubic_residual with the cube of R summed over every index triple."""
    n_max = series.order
    r = [IntPoly()] + list(series.polys)
    w = IntPoly((0, 1))
    out = []
    for m in range(n_max + 1):
        conv2 = sum((r[i] * r[m - i] for i in range(1, m)), IntPoly())
        conv2_prev = sum((r[i] * r[m - 1 - i] for i in range(1, m - 1)), IntPoly())
        conv3 = sum((r[i] * r[j] * r[m - i - j] for i in range(1, m)
                     for j in range(1, m - i)), IntPoly())
        res = w * w * (w - IntPoly((1,))) * conv3 + w * (w.scale(2) - IntPoly((2,))) * conv2
        res = res - r[m]
        if m >= 1:
            res = res + w * w * conv2_prev + r[m - 1] * w.scale(2)
        if m == 1:
            res = res + IntPoly((1,))
        out.append(res)
    return out


def test_cubic_residual_matches_the_literal_triple_sum():
    for order in (1, 2, 5, 24):
        series = r_sequence(order)
        assert cubic_residual(series) == _literal_residual(series)
    # a perturbed series has the same nonzero residual by both routes
    polys = list(r_sequence(12).polys)
    polys[6] = polys[6] + IntPoly((0, 3))
    broken = dims.PolySeries(12, tuple(polys))
    residual = cubic_residual(broken)
    assert residual == _literal_residual(broken) and any(residual)


def test_verify_identities_at_order_24():
    report = verify_identities(24)
    assert report.passed, report.witnesses[:3]


def test_evaluate_pins():
    series = r_sequence(5)
    assert evaluate(series.r(5), 1) == 42
    assert evaluate(series.r(3), 2) == 104
    assert evaluate(series.r(2), 3) == 18
    assert evaluate(series, 1) == [1, 2, 5, 14, 42]
    with pytest.raises(TypeError):
        evaluate([1, 2], 1)


def test_poly_arithmetic_and_roundtrip():
    p = IntPoly((1, 2, 3))
    q = IntPoly((0, -2))
    assert (p + q).coeffs == (1, 0, 3)
    assert (p * q).coeffs == (0, -2, -4, -6)
    assert (p - p).coeffs == ()
    assert IntPoly.from_json(p.to_json()) == p
    assert IntPoly((0, 0, 1)).shift(-2) == IntPoly((1,))
    with pytest.raises(ValueError):
        IntPoly((1, 1)).shift(-1)


# --- the independent oracle --------------------------------------------------

def _brute_count(n, w, la, ra):
    """Literal enumeration of pattern-avoiding decorated trees; tiny n only."""

    def gen(leaves):
        if leaves == 1:
            yield None
            return
        for i in range(1, leaves):
            for left in gen(i):
                for right in gen(leaves - i):
                    for op in (0, 1):
                        for a in range(w):
                            for b in range(w):
                                yield (op, a, b, left, right)

    def ok(t):
        if t is None:
            return True
        op, d, _g, left, right = t
        if left is not None:
            cop, a, b = left[0], left[1], left[2]
            if cop == 0 and op == 0 and d == la[a][b]:
                return False
            if cop == 1 and d == ra[a][b]:
                return False
        return ok(left) and ok(right)

    return sum(1 for t in gen(n) if ok(t))


def test_count_pins():
    assert count_basis_trees(1, 1) == 1
    assert count_basis_trees(1, 3) == 1
    assert count_basis_trees(3, 1) == 5
    assert count_basis_trees(3, 2) == 104


def test_count_matches_literal_enumeration():
    left = ((0, 0), (1, 1))
    for n in range(1, 5):
        for w in (1, 2):
            proj = tuple(tuple(a for _ in range(w)) for a in range(w))
            assert count_basis_trees(n, w) == _brute_count(n, w, proj, proj)
    assert count_basis_trees(4, 2, tables=(left, left)) == \
        _brute_count(4, 2, left, left)


def test_count_equals_polynomial():
    series = r_sequence(6)
    for n in range(1, 7):
        for w in (1, 2, 3):
            assert count_basis_trees(n, w) == series.r(n)(w)


def test_count_is_table_independent():
    right = ((0, 1), (0, 1))
    left = ((0, 0), (1, 1))
    xor = ((0, 1), (1, 0))
    const = ((0, 0), (0, 0))
    base = count_basis_trees(4, 2)
    for tables in itertools.product((left, right, xor, const), repeat=2):
        assert count_basis_trees(4, 2, tables=tables) == base


def test_count_reads_the_left_combs_once_per_structure(monkeypatch):
    built = []
    real = dims.family_presentation
    monkeypatch.setattr(dims, "family_presentation", lambda p, s: built.append(s) or real(p, s))
    dims._left_combs.cache_clear()
    try:
        counts = [count_basis_trees(n, 3) for n in range(1, 9)] + [count_basis_trees(n, 3)
                                                                   for n in range(1, 9)]
        assert count_basis_trees(4, 2, tables=(((0, 1), (0, 1)),) * 2) == count_basis_trees(4, 2)
    finally:
        dims._left_combs.cache_clear()
    assert counts[:8] == counts[8:] == [r_sequence(8).r(n)(3) for n in range(1, 9)]
    assert built == [ds_projections(3), OmegaStructure(2, ((0, 1), (0, 1)), ((0, 1), (0, 1))),
                     ds_projections(2)]


@pytest.mark.parametrize("tables", [([[0]], [[0]]), (((0, 1), (0, 2)), ((0, 0), (0, 0))),
                                    (((0, 1), (0, 1)), ((0, True), (0, 0))),
                                    # not a pair of tables
                                    5, ((0, 0), (1, 1)), ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
                                    (((0, 0), (1, 1)),), ((0, 0), (1, 1), (0, 1))])
def test_count_tables_must_be_w_by_w_over_the_parameters(tables):
    with pytest.raises(PreconditionError):
        count_basis_trees(3, 2, tables)


@pytest.mark.parametrize("call,args", [
    (IntPoly.monomial, (-1, 3)), (IntPoly.monomial, (1.0,)), (IntPoly.monomial, (True,)),
    (IntPoly.monomial, (1, 1.0)), (dims.W.shift, (1.5,)), (dims.W.shift, (False,)),
    (dims.W.divisible_by_power, (-1,)), (dims.W.divisible_by_power, (2.0,))])
def test_intpoly_methods_refuse_what_is_not_an_integer_in_range(call, args):
    with pytest.raises(PreconditionError):
        call(*args)
    assert IntPoly.monomial(0, 3) == IntPoly.const(3)
    assert not IntPoly((0, 1)).divisible_by_power(2) and IntPoly((0, 1)).divisible_by_power(0)


def test_count_bounds():
    with pytest.raises(ResourceBoundError):
        count_basis_trees(9, 2)
    with pytest.raises(ResourceBoundError):
        count_basis_trees(4, 5)
    with pytest.raises(ResourceBoundError):
        r_sequence(65)


@pytest.mark.parametrize("order", [0, -1])
def test_order_below_one_is_a_value_error(order):
    with pytest.raises(ValueError) as exc:
        r_sequence(order)
    assert not isinstance(exc.value, ResourceBoundError)
