from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wedge_crystal.laurent import (LaurentScalar, NotRegular, RationalScalar,
                                   padd, pmul, qbinomial, qfactorial, qint,
                                   rational)


def L(d):
    return LaurentScalar(d)


coeffs = st.integers(-6, 6)
exponents = st.integers(-5, 5)
laurents = st.dictionaries(exponents, coeffs, max_size=4).map(LaurentScalar)
# integer Laurent polynomials: no zero coefficients
polys = st.dictionaries(exponents, coeffs.filter(bool), max_size=4)


def test_basic_identities():
    q = LaurentScalar.qs()
    qi = LaurentScalar.qs(-1)
    assert (q - qi) / (q - qi) == RationalScalar.one()
    # quantum integer [2] as a quotient of the defining expression
    num = LaurentScalar.qs(2) - LaurentScalar.qs(-2)
    assert num / (q - qi) == RationalScalar(q + qi)
    assert qint(2, 1) == q + qi
    one = LaurentScalar.one()
    assert (one - LaurentScalar.qs(2)) / (one - q) == RationalScalar(one + q)


def test_regularity_predicate():
    q = LaurentScalar.qs()
    one = LaurentScalar.one()
    x = q / (one + q)
    assert x.is_regular and x.eval_at_zero() == 0
    y = one / q
    assert not y.is_regular
    with pytest.raises(NotRegular):
        y.eval_at_zero()
    z = (q + LaurentScalar.qs(2)) / q
    assert z.is_regular and z.eval_at_zero() == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        LaurentScalar.one() / LaurentScalar.zero()
    with pytest.raises(ZeroDivisionError):
        RationalScalar.one() / RationalScalar.zero()


@given(laurents, laurents, laurents)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentScalar.zero() == a
    assert a * LaurentScalar.one() == a


@given(laurents, laurents, laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_field_axioms(an, ad, bn, bd):
    if ad.is_zero or bd.is_zero:
        return
    a = RationalScalar(an, ad)
    b = RationalScalar(bn, bd)
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero:
        assert (a / b) * b == a
    assert a - a == RationalScalar.zero()


@given(laurents, laurents, laurents, laurents)
@settings(max_examples=60, deadline=None)
def test_regular_product_and_evaluation(an, ad, bn, bd):
    if ad.is_zero or bd.is_zero:
        return
    a = RationalScalar(an, ad)
    b = RationalScalar(bn, bd)
    if a.is_regular and b.is_regular:
        prod = a * b
        assert prod.is_regular
        assert prod.eval_at_zero() == a.eval_at_zero() * b.eval_at_zero()


def test_canonical_form_is_syntactic():
    q = LaurentScalar.qs()
    one = LaurentScalar.one()
    a = RationalScalar(L({1: 2, 2: 2}), L({0: 2, 1: 2}))  # 2q(1+q) / 2(1+q)
    b = RationalScalar(q, one)
    assert a == b
    assert a.num == b.num and a.den == b.den
    # denominator normalized at its lowest coefficient
    c = RationalScalar(one, L({0: 3, 1: 3}))
    assert c.den.coeff(0) == 1


def test_qfactorial():
    assert qfactorial(0, 1) == LaurentScalar.one()
    assert qfactorial(2, 1) == qint(2, 1)
    assert qfactorial(3, 2) == qint(2, 2) * qint(3, 2)


def test_rendering():
    s = L({-2: 3, 3: Fraction(1, 2)})
    assert str(s) == "3*qs^-2 + 1/2*qs^3"


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_integer_helpers_match_laurent_arithmetic(a, b):
    la, lb = LaurentScalar(a), LaurentScalar(b)
    for got, want in ((padd(a, b), la + lb), (pmul(a, b), la * lb)):
        assert all(got.values())  # canonical: no zero coefficients
        assert LaurentScalar(got) == want
    assert rational(a) == RationalScalar(la)
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
            ratio = RationalScalar(qfactorial(m, unit)) / (
                RationalScalar(qfactorial(k, unit) * qfactorial(m - k, unit)))
            assert rational(qbinomial(m, k, unit)) == ratio, (m, k)
    assert qbinomial(3, 4, unit) == {} and qbinomial(3, -1, unit) == {}
