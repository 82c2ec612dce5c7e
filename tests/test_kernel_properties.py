"""Property tests: the integer-id kernel against the object oracle, up to n = 12.

Exhaustive comparisons stop at small ranks (``test_crystal``); these sample
single elements of every labeling at ranks where the ground set has up to
4^12 states.
"""

from hypothesis import given, settings, strategies as st

import crystal_oracle as oracle
from wedge_crystal import bicrystal, crystal
from wedge_crystal.cartan import DOUBLE, from_label

TOKENS = ("B1", "C1", "D1", "A2even", "A2evenDagger", "A2odd", "D2")
DOUBLED = ("C1", "A2even", "A2evenDagger", "A2odd")
MAX_N = 12

SAMPLED = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def elements(draw, tokens=TOKENS):
    t = from_label(draw(st.sampled_from(tokens)), draw(st.integers(2, MAX_N)))
    return t, draw(st.integers(0, crystal.ground_size(t) - 1))


def _object(t, x):
    cls = oracle.BinaryMatrix if t.doubled else oracle.BinaryVector
    return cls.from_id(t.n, x)


def _id(obj):
    return None if obj is None else obj.id


@SAMPLED
@given(elements())
def test_raising_inverts_lowering(case):
    t, x = case
    obj = _object(t, x)
    for i in range(t.n + 1):
        y = crystal.f_tilde(t, i, x)
        assert y == _id(oracle.f_tilde(t, i, obj))
        if y is not None:
            assert crystal.e_tilde(t, i, y) == x
        z = crystal.e_tilde(t, i, x)
        assert z == _id(oracle.e_tilde(t, i, obj))
        if z is not None:
            assert crystal.f_tilde(t, i, z) == x


@SAMPLED
@given(elements())
def test_string_lengths_match_closed_form_weight(case):
    t, x = case
    obj = _object(t, x)
    w = crystal.weight(t, x)
    assert w == oracle.weight(t, obj)
    for i in range(t.n + 1):
        eps, phi = oracle.string_lengths(t, i, obj)
        assert crystal.string_lengths(t, i, x) == (eps, phi)
        assert phi - eps == w[i]


@SAMPLED
@given(elements(DOUBLED))
def test_tensor_rule(case):
    t, x = case
    obj = _object(t, x)
    for i in range(t.n + 1):
        if (i == 0 and t.end0 == DOUBLE) or (i == t.n and t.end_n == DOUBLE):
            continue
        e1 = oracle._col_e(t, i, obj.col1)
        f1 = oracle._col_f(t, i, obj.col1)
        e2 = oracle._col_e(t, i, obj.col2)
        f2 = oracle._col_f(t, i, obj.col2)
        eps1, phi1, eps2, phi2 = (int(c is not None) for c in (e1, f1, e2, f2))
        assert crystal.string_lengths(t, i, x) == (
            eps1 + max(0, eps2 - phi1), phi2 + max(0, phi1 - eps2))
        # f acts on column one when it admits f and column two does not admit e
        if phi1 and not eps2:
            lowered = oracle.BinaryMatrix(f1, obj.col2)
        else:
            lowered = None if f2 is None else oracle.BinaryMatrix(obj.col1, f2)
        assert crystal.f_tilde(t, i, x) == _id(lowered)
        # e acts on column two when it admits e and column one does not admit f
        if eps2 and not phi1:
            raised = oracle.BinaryMatrix(obj.col1, e2)
        else:
            raised = None if e1 is None else oracle.BinaryMatrix(e1, obj.col2)
        assert crystal.e_tilde(t, i, x) == _id(raised)


@SAMPLED
@given(st.integers(2, MAX_N).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 4 ** n - 1))))
def test_sigma_signature_closed_form_and_strings(case):
    n, x = case
    s = bicrystal.sigma(n, x)
    assert s == bicrystal.sigma_closed(n, x) == bicrystal.sigma_by_strings(n, x)
    obj = oracle.BinaryMatrix.from_id(n, x)
    assert s == oracle.sigma(obj)
    assert bicrystal.E_tilde(n, x) == _id(oracle.E_tilde(obj))
    assert bicrystal.F_tilde(n, x) == _id(oracle.F_tilde(obj))


@st.composite
def short_columns(draw):
    """An id whose columns each have a drawn bit length, so that their rows
    from 1-bar upwards are often zero."""
    t = from_label(draw(st.sampled_from(TOKENS)), draw(st.integers(2, MAX_N)))
    x = 0
    for shift in ((0, t.n) if t.doubled else (0,)):
        bits = draw(st.integers(0, t.n))
        x |= draw(st.integers(0, (1 << bits) - 1)) << shift
    return t, x


@SAMPLED
@given(st.one_of(elements(), short_columns()))
def test_text_matches_oracle(case):
    t, x = case
    assert crystal.text(t, x) == _object(t, x).text
