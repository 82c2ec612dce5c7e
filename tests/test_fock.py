import pytest

import fock_oracle as oracle
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
from wedge_crystal.laurent import RationalScalar, rational

ONE = {0: 1}  # the unit of Z[qs^±1]


def _vac(dim):
    return {0: ONE}


def test_vacuum_conditions():
    n = 3
    for a in range(1, n + 1):
        assert not psi_star(n, a).apply(_vac(8))
    for a in range(1, n + 1):
        w = omega(n, a, 1).apply(_vac(8))
        assert w == {0: {-1: 1}}


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
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_phases_anticommute():
    n = 3
    p = parity(n)
    for a in range(1, n + 1):
        assert (p @ psi(n, a)) == (psi(n, a) @ p).scale({0: -1})


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
        # the modified operators have Q(qs) entries; multiply them as such
        et, ft = (oracle.SparseOperator(rep.dim, {rc: oracle.scalar(v)
                                                  for rc, v in op.entries.items()})
                  for op in kashiwara_operators(rep, i))
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
    assert vec[target] == RationalScalar.one()
    other = crystal.v_kl(t, 1, 0)
    assert other not in vec or vec[other].eval_at_zero() == 0


@pytest.mark.parametrize("n", (2, 3))
def test_null_shift(n):
    rep = representation(from_label("A2odd", n))
    checks = verify_null_shift(rep)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_highest_vectors_are_computed_once_per_weight(capsys, monkeypatch):
    from wedge_crystal.cli import main

    calls, kernels = [], []
    highest, kernel = fock.highest_vectors, fock._kernel

    def counted_highest(rep, weight_vec):
        calls.append(tuple(weight_vec))
        return highest(rep, weight_vec)

    def counted_kernel(rows, cols):
        kernels.append(cols)
        return kernel(rows, cols)

    monkeypatch.setattr(fock, "highest_vectors", counted_highest)
    monkeypatch.setattr(fock, "_kernel", counted_kernel)
    assert main(["fock", "verify", "--type", "A2odd", "--n", "4", "--highest",
                 "--deltaword"]) == 0
    # 18 requests for 5 weights, one elimination per weight
    assert (len(calls), len(set(calls)), len(kernels)) == (18, 5, 5)


def test_generators_are_converted_once(capsys, monkeypatch):
    from wedge_crystal.cli import main

    converted = []
    columns = fock._rational_columns

    def counted(op):
        converted.append(id(op))
        return columns(op)

    monkeypatch.setattr(fock, "_rational_columns", counted)
    assert main(["fock", "verify", "--crystal-match", "--highest", "--deltaword",
                 "--type", "A2odd", "--n", "4"]) == 0
    # each of e_0..e_4 and f_0..f_4 at most once
    assert len(converted) == len(set(converted)) <= 2 * 5


def test_empty_weight_space():
    t = from_label("C1", 2)
    rep = representation(t)
    kernel, idxs = highest_vectors(rep, (5, 5, 5))
    assert kernel == [] and idxs == []


# -- the integer formulation against the rational oracle ------------------------

SUITES = ("verify_relations", "verify_weight_compatibility", "verify_polarization")


def _verdicts(module, rep):
    return [(c.name, c.ok) for name in SUITES for c in getattr(module, name)(rep)]


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_formulation_matches_oracle(label, n):
    t = from_label(label, n)
    rep, ref = representation(t), oracle.representation(t)
    for name in ("e", "f", "t", "tinv"):
        for i in range(n + 1):
            ours = {rc: oracle.scalar(rational(v))
                    for rc, v in getattr(rep, name)[i].entries.items()}
            assert ours == getattr(ref, name)[i].entries, (name, i)
    verdicts = _verdicts(fock, rep)
    assert verdicts == _verdicts(oracle, ref)
    assert all(ok for _, ok in verdicts)


@pytest.mark.parametrize("unit", (1, 2))
@pytest.mark.parametrize("n", (2, 3))
def test_clifford_checks_match_oracle(n, unit):
    ours = [(c.name, c.ok) for c in clifford_relation_checks(n, unit)]
    assert ours == oracle.clifford_relation_checks(n, unit)


def _flip_first(op):
    rc = min(op.entries)
    op.entries[rc] = {e: -v for e, v in op.entries[rc].items()}
    return rc


@pytest.mark.parametrize("label", ("C1", "A2odd", "B1"))
def test_sign_mutation_fails_the_same_checks(label):
    t = from_label(label, 3)
    rep, ref = representation(t), oracle.representation(t)
    r, c = _flip_first(rep.f[1])
    ref.f[1].entries[(r, c)] = -ref.f[1].entries[(r, c)]
    ours, theirs = _verdicts(fock, rep), _verdicts(oracle, ref)
    assert ours == theirs
    failed = [name for name, ok in ours if not ok]
    assert "polarization f(1)" in failed and "polarization e(1)" in failed
    # the witnesses name the flipped entry and its transposed position
    witness = {ch.name: ch.witness for ch in verify_polarization(rep)}
    assert witness["polarization e(1)"].startswith(f"entry {(r, c)}: ")
    assert witness["polarization f(1)"].startswith(f"entry {(c, r)}: ")
    assert all(ch.witness is None for ch in verify_polarization(representation(t))
               if ch.ok)


def test_witness_shows_both_entries():
    a = SparseOperator(4, {(1, 2): {1: 1}, (3, 0): {0: 2}})
    b = SparseOperator(4, {(1, 2): {-1: -1}, (3, 0): {0: 2}})
    check = fock._compare("demo", a, b)
    assert not check.ok
    assert check.witness == "entry (1, 2): lhs qs, rhs -qs^-1"
    check = fock._compare("demo", a, SparseOperator(4, {(1, 2): {1: 1}}))
    assert check.witness == "entry (3, 0): lhs 2, rhs 0"
    assert fock._compare("demo", a, a) == fock.Check("demo", True)
