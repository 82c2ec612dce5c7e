"""Property tests: the integer-id kernel against the object oracle, up to n = 12.

Exhaustive comparisons stop at small ranks (``test_crystal``); these sample
single elements of every labeling at ranks where the ground set has up to
4^12 states.  The list kernels (``crystal.texts``, ``crystal.rule_weights``,
``bicrystal.sigmas``) are checked against the per-id forms on sampled id
sequences.
"""

from array import array

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
        assert oracle.string_lengths_of_id(t, i, x) == (eps, phi)
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
        assert oracle.string_lengths_of_id(t, i, x) == (
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


@st.composite
def id_lists(draw, tokens=TOKENS):
    """A labeling at n = 2..8 and a sequence of its ids: a random list (the
    empty list among them), a single id, a range or an ``array("I")``."""
    t = from_label(draw(st.sampled_from(tokens)), draw(st.integers(2, 8)))
    top = crystal.ground_size(t) - 1
    x = st.integers(0, top)
    kind = draw(st.sampled_from(("list", "single", "range", "array")))
    if kind == "single":
        return t, [draw(x)]
    if kind == "range":
        start = draw(x)
        return t, range(start, min(top + 1, start + draw(st.integers(0, 300))))
    ids = draw(st.lists(x, max_size=60))
    return t, array("I", ids) if kind == "array" else ids


@SAMPLED
@given(id_lists())
def test_list_kernels_match_the_per_id_forms(case):
    t, ids = case
    rs = crystal.rules(t)
    assert crystal.texts(t, ids) == [crystal.text(t, x) for x in ids]
    assert crystal.rule_weights(rs, ids) == [crystal.weight(t, x) for x in ids] \
        == [oracle.rule_weight_by_rules(rs, x) for x in ids]


@SAMPLED
@given(id_lists(DOUBLED))
def test_sigmas_match_sigma(case):
    t, ids = case
    assert bicrystal.sigmas(t.n, ids) == [bicrystal.sigma(t.n, x) for x in ids]


def test_list_kernels_on_the_empty_list():
    for token in TOKENS:
        t = from_label(token, 3)
        assert crystal.texts(t, []) == crystal.rule_weights(crystal.rules(t), []) == []
    assert bicrystal.sigmas(3, ()) == []
