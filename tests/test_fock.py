import pytest

from wedge_crystal.cartan import ALL_LABELS, from_label, \
    fundamental_weight_cl
from wedge_crystal import crystal, fock, theorems
from wedge_crystal.fock import (SparseOperator, clifford_relation_checks,
                                crystal_match, highest_vectors,
                                kashiwara_operators, kron,
                                normalized_highest_vector, omega, parity, psi,
                                psi_star, representation, verify_null_shift,
                                verify_polarization, verify_relations,
                                verify_weight_compatibility)
from wedge_crystal.laurent import LaurentScalar, RationalScalar

ONE = RationalScalar.one()


def _vac(dim):
    return {0: ONE}


def test_vacuum_conditions():
    n = 3
    for a in range(1, n + 1):
        assert not psi_star(n, a).apply(_vac(8))
    for a in range(1, n + 1):
        w = omega(n, a, 1).apply(_vac(8))
        assert w == {0: RationalScalar(LaurentScalar.qs(-1))}


def test_creation_squares_to_zero():
    n = 3
    for a in range(1, n + 1):
        assert (psi(n, a) @ psi(n, a)).is_zero
        assert (psi_star(n, a) @ psi_star(n, a)).is_zero


def test_transit_identity_on_vacuum():
    n = 2
    out = (psi_star(n, 1) @ psi(n, 1)).apply(_vac(4))
    assert out == {0: ONE}


@pytest.mark.parametrize("unit", (1, 2))
def test_clifford_relations(unit):
    checks = clifford_relation_checks(2, unit)
    assert all(ok for _, ok in checks), [name for name, ok in checks if not ok]


def test_phases_anticommute():
    n = 3
    p = parity(n)
    for a in range(1, n + 1):
        assert (p @ psi(n, a)) == (psi(n, a) @ p).scale(-ONE)


def test_kron_index_convention():
    a = SparseOperator(2, {(1, 0): ONE})
    b = SparseOperator(2, {(0, 1): ONE})
    k = kron(a, b)
    assert k.entries == {(1, 2): ONE}  # low bits from the first factor


def test_middle_action_example():
    rep = representation(from_label("B1", 2))  # single space, n = 2
    # raising moves the occupied bottom row to the top row
    vec = {2: ONE}  # state with only row 1-bar occupied
    out = rep.e[1].apply(vec)
    assert out == {1: ONE}


def test_doubled_bottom_end_on_vacuum():
    rep = representation(from_label("C1", 2))
    out = rep.f[2].apply({0: ONE})
    # both factors gain their top-row state (id 1 each)
    assert out == {1 + (1 << 2): ONE}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_relations_exact(label):
    rep = representation(from_label(label, 2))
    checks = verify_relations(rep)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_polarization_exact(label):
    rep = representation(from_label(label, 2))
    checks = verify_polarization(rep)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_weight_compatibility(label):
    rep = representation(from_label(label, 2))
    assert all(c.ok for c in verify_weight_compatibility(rep))


def test_kashiwara_string_calculus():
    rep = representation(from_label("C1", 2))
    for i in range(3):
        et, ft = kashiwara_operators(rep, i)
        # the two modified operators are mutually inverse along strings
        assert (et @ ft @ et) == et
        assert (ft @ et @ ft) == ft
        # raising is nilpotent with order bounded by the longest string
        m = max(rep.weights[idx][i] for idx in range(rep.dim))
        assert et.power(m + 1).is_zero


@pytest.mark.parametrize("label", ALL_LABELS)
def test_crystal_match_small(label):
    rep = representation(from_label(label, 2))
    checks, signs = crystal_match(rep)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    assert all(v in (1, -1) for tbl in signs.values() for v in tbl.values())


def test_highest_vector_counts():
    t = from_label("C1", 2)
    rep = representation(t)
    for (k, l) in theorems.h_diamond(t):
        wvec = fundamental_weight_cl(t, k)
        kernel, _ = highest_vectors(rep, wvec)
        expected = len(fock._highest_crystal_ids(rep, wvec))
        assert len(kernel) == expected


def test_vacuum_pair_is_classically_highest():
    t = from_label("A2even", 2)
    rep = representation(t)
    for i in range(1, t.n + 1):
        assert not rep.e[i].apply({0: ONE})


def test_normalized_highest_vector():
    t = from_label("C1", 2)
    rep = representation(t)
    vec, ok, dim = normalized_highest_vector(rep, 1, 1)
    assert ok
    target = crystal.v_kl(t, 1, 1)
    assert vec[target] == ONE
    other = crystal.v_kl(t, 1, 0)
    assert other not in vec or vec[other].eval_at_zero() == 0


@pytest.mark.parametrize("n", (2, 3))
def test_null_shift(n):
    rep = representation(from_label("A2odd", n))
    checks = verify_null_shift(rep)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_empty_weight_space():
    t = from_label("C1", 2)
    rep = representation(t)
    kernel, idxs = highest_vectors(rep, (5, 5, 5))
    assert kernel == [] and idxs == []
