from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import fock_oracle as oracle
from wedge_crystal.laurent import (NotRegular, RationalScalar, format_poly,
                                   padd, pmul, qbinomial, qfactorial, rational)

SAMPLED = settings(max_examples=120, deadline=None, derandomize=True)
FEW = settings(max_examples=60, deadline=None, derandomize=True)

coeffs = st.integers(-6, 6)
exponents = st.integers(-5, 5)
# integer Laurent polynomials: no zero coefficients
polys = st.dictionaries(exponents, coeffs.filter(bool), max_size=4)
nonzero_polys = st.dictionaries(exponents, coeffs.filter(bool), min_size=1, max_size=4)
monomials = st.builds(lambda e, c: {e: c}, exponents, coeffs.filter(bool))


def R(num, den=None):
    return RationalScalar(num, den)


def O(num, den=None):
    """The same quotient in the oracle's Fraction arithmetic."""
    return oracle.RationalScalar(oracle.LaurentScalar(num),
                                 None if den is None else oracle.LaurentScalar(den))


def is_canonical(x: RationalScalar) -> bool:
    if not x.num:
        return x.den == {0: 1}
    if not all(x.num.values()) or not all(x.den.values()):
        return False
    if min(x.den) != 0 or x.den[0] <= 0:
        return False
    if gcd(*x.num.values(), *x.den.values()) != 1:
        return False
    vn = min(x.num)
    g = oracle._poly_gcd({e - vn: Fraction(v) for e, v in x.num.items()},
                         {e: Fraction(v) for e, v in x.den.items()})
    return g == {0: 1}


@st.composite
def quotients(draw):
    """(num, den) dicts: unit, monomial and general denominators, with a
    shared integer content and a shared polynomial factor mixed in."""
    num = draw(polys)
    den = draw(st.one_of(st.just({0: 1}), monomials, nonzero_polys))
    common = draw(st.one_of(st.just({0: 1}), nonzero_polys))
    content = draw(st.sampled_from((1, 1, 2, 3, 6, -1, -4)))
    return pmul(pmul(num, common), {0: content}), pmul(pmul(den, common), {0: content})


def test_basic_identities():
    q, qi = {1: 1}, {-1: 1}
    diff = {1: 1, -1: -1}  # q - q^-1
    assert R(diff, diff) == RationalScalar.one()
    # quantum integer [2] as a quotient of the defining expression
    assert R({2: 1, -2: -1}, diff) == R(padd(q, qi))
    assert oracle.qint(2, 1) == oracle.LaurentScalar(q) + oracle.LaurentScalar(qi)
    assert R({0: 1, 2: -1}, {0: 1, 1: -1}) == R({0: 1, 1: 1})


def test_regularity_predicate():
    q, one = R({1: 1}), R({0: 1})
    x = q / (one + q)
    assert x.is_regular and x.eval_at_zero() == 0
    y = one / q
    assert not y.is_regular
    with pytest.raises(NotRegular):
        y.eval_at_zero()
    z = R({1: 1, 2: 1}, {1: 1})
    assert z.is_regular and z.eval_at_zero() == 1


def test_value_at_zero_is_an_int_unless_it_is_not_one():
    q = {1: 1}
    for num, den in (({0: 6, 1: 1}, {0: 3, 2: 1}), ({0: -4}, {0: 2, 1: 5}),
                     ({1: 1}, {0: 7}), ({0: 3, 1: 1}, {0: 2, 1: 1}),
                     ({0: -5}, {0: 3, 2: -1})):
        x = R(num, den)
        value = x.eval_at_zero()
        assert value == Fraction(x.num.get(0, 0), x.den[0])
        assert value == Fraction(num.get(0, 0), den[0])
        assert type(value) is (int if value.denominator == 1 else Fraction)
    assert R(q).eval_at_zero() == 0 and type(R(q).eval_at_zero()) is int


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        R({0: 1}, {})
    with pytest.raises(ZeroDivisionError):
        RationalScalar.one() / RationalScalar.zero()
    with pytest.raises(ZeroDivisionError):
        RationalScalar.zero().inverse()


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert padd(a, b) == padd(b, a)
    assert padd(padd(a, b), c) == padd(a, padd(b, c))
    assert pmul(a, b) == pmul(b, a)
    assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))
    assert pmul(a, padd(b, c)) == padd(pmul(a, b), pmul(a, c))
    assert padd(a, {}) == a
    assert pmul(a, {0: 1}) == a


@given(polys, polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_field_axioms(an, ad, bn, bd):
    if not ad or not bd:
        return
    a = R(an, ad)
    b = R(bn, bd)
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero:
        assert (a / b) * b == a
    assert a - a == RationalScalar.zero()


@given(polys, polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_regular_product_and_evaluation(an, ad, bn, bd):
    if not ad or not bd:
        return
    a = R(an, ad)
    b = R(bn, bd)
    if a.is_regular and b.is_regular:
        prod = a * b
        assert prod.is_regular
        assert prod.eval_at_zero() == a.eval_at_zero() * b.eval_at_zero()


def test_canonical_form_is_syntactic():
    a = R({1: 2, 2: 2}, {0: 2, 1: 2})  # 2q(1+q) / 2(1+q)
    b = R({1: 1}, {0: 1})
    assert a == b
    assert a.num == b.num and a.den == b.den
    # the integer content is removed from the pair, not from the denominator
    c = R({0: 1}, {0: 3, 1: 3})
    assert c.num == {0: 1} and c.den == {0: 3, 1: 3}
    assert R({0: 2}, {0: 4}).den == {0: 2}
    # the denominator has a positive constant term
    d = R({0: 1}, {0: -1, 1: 2})
    assert d.num == {0: -1} and d.den == {0: 1, 1: -2}


def test_qfactorial():
    assert qfactorial(0, 1) == qfactorial(1, 2) == {0: 1}
    assert oracle.LaurentScalar(qfactorial(2, 1)) == oracle.qint(2, 1)
    assert oracle.LaurentScalar(qfactorial(3, 2)) == oracle.qint(2, 2) * oracle.qint(3, 2)
    for k in range(6):
        for unit in (1, 2):
            assert oracle.LaurentScalar(qfactorial(k, unit)) == oracle.qfactorial(k, unit)


def test_rendering():
    assert format_poly({-2: 3, 3: Fraction(1, 2)}) == "3*qs^-2 + 1/2*qs^3"
    assert str(R({0: 1}, {0: 3, 1: 3})) == "(1) / (3 + 3*qs)"


@FEW
@given(polys)
def test_format_poly_matches_the_oracle(p):
    assert format_poly(p) == str(oracle.LaurentScalar(p))
    assert str(rational(p)) == str(O(p))


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_integer_helpers_match_laurent_arithmetic(a, b):
    la, lb = oracle.LaurentScalar(a), oracle.LaurentScalar(b)
    for got, want in ((padd(a, b), la + lb), (pmul(a, b), la * lb)):
        assert all(got.values())  # canonical: no zero coefficients
        assert oracle.LaurentScalar(got) == want
    assert oracle.scalar(rational(a)) == oracle.RationalScalar(la)
    assert pmul(a, {}) == pmul({}, a) == {}


def test_helpers_leave_arguments_alone():
    a, b = {1: 2}, {-1: 3, 0: 1}
    for fn in (padd, pmul):
        fn(a, b)
        fn(b, a)
    assert a == {1: 2} and b == {-1: 3, 0: 1}


@pytest.mark.parametrize("unit", (1, 2))
def test_qbinomial_is_a_quotient_of_factorials(unit):
    for m in range(6):
        for k in range(m + 1):
            ratio = R(qfactorial(m, unit)) / R(pmul(qfactorial(k, unit),
                                                   qfactorial(m - k, unit)))
            assert rational(qbinomial(m, k, unit)) == ratio, (m, k)
    assert qbinomial(3, 4, unit) == {} and qbinomial(3, -1, unit) == {}


# -- the fraction field against the Fraction oracle ----------------------------


@SAMPLED
@given(quotients(), quotients())
def test_field_operations_match_the_oracle(a, b):
    x, y = R(*a), R(*b)
    ox, oy = O(*a), O(*b)
    assert is_canonical(x) and oracle.scalar(x) == ox
    for got, want in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy),
                      (-x, -ox)):
        assert is_canonical(got) and oracle.scalar(got) == want
    if oy.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        for got, want in ((x / y, ox / oy), (y.inverse(), oy.inverse())):
            assert is_canonical(got) and oracle.scalar(got) == want
    assert (x == y) == (ox == oy)
    assert (x == x + RationalScalar.zero()) and (x * RationalScalar.one() == x)


@FEW
@given(quotients())
def test_regularity_and_evaluation_match_the_oracle(a):
    x, ox = R(*a), O(*a)
    assert x.is_regular == ox.is_regular
    if ox.is_regular:
        value = x.eval_at_zero()
        assert value == ox.eval_at_zero() == Fraction(x.num.get(0, 0), x.den[0])
        assert type(value) is (int if value.denominator == 1 else Fraction)
    else:
        with pytest.raises(NotRegular):
            x.eval_at_zero()


@FEW
@given(quotients(), nonzero_polys)
def test_equality_is_syntactic_under_common_factors(a, k):
    x = R(*a)
    y = R(pmul(a[0], k), pmul(a[1], k))
    assert x == y and x.num == y.num and x.den == y.den and hash(x) == hash(y)
