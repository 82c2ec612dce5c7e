import random

import pytest

import fock_oracle as oracle
from wedge_crystal.cartan import ALL_LABELS, from_label, \
    fundamental_weight_cl
from wedge_crystal import crystal, fock, theorems
from wedge_crystal.fock import (SparseOperator, crystal_match, highest_vectors,
                                kashiwara_operators, kron,
                                normalized_highest_vector, omega, parity, psi,
                                psi_star, representation, verify_null_shift,
                                verify_polarization, verify_relations,
                                verify_weight_compatibility)
from wedge_crystal.laurent import RationalScalar, rational

ONE = {0: 1}  # the unit of Z[qs^±1]


def _column(dim, vec):
    """The vector {index: Z[qs^±1] dict} as a one-column operator."""
    return SparseOperator(dim, {(r, 0): v for r, v in vec.items()})


def _vac(dim):
    return _column(dim, {0: ONE})


def test_vacuum_conditions():
    n = 3
    for a in range(1, n + 1):
        assert not (psi_star(n, a) @ _vac(8)).entries
    for a in range(1, n + 1):
        w = (omega(n, a, 1) @ _vac(8)).entries
        assert w == {(0, 0): {-1: 1}}


def test_creation_squares_to_zero():
    n = 3
    for a in range(1, n + 1):
        assert not (psi(n, a) @ psi(n, a)).entries
        assert not (psi_star(n, a) @ psi_star(n, a)).entries


def test_transit_identity_on_vacuum():
    n = 2
    out = (psi_star(n, 1) @ psi(n, 1) @ _vac(4)).entries
    assert out == {(0, 0): ONE}


@pytest.mark.parametrize("unit", (1, 2))
def test_clifford_relations(unit):
    checks = oracle.integer_clifford_relation_checks(2, unit)
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
    vec = _column(rep.dim, {2: ONE})  # state with only row 1-bar occupied
    out = (rep.e[1] @ vec).entries
    assert out == {(1, 0): ONE}


def test_doubled_bottom_end_on_vacuum():
    rep = representation(from_label("C1", 2))
    out = (rep.f[2] @ _vac(rep.dim)).entries
    # both factors gain their top-row state (id 1 each)
    assert out == {(1 + (1 << 2), 0): ONE}


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
    checks = crystal_match(rep)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_highest_vector_counts():
    t = from_label("C1", 2)
    rep = representation(t)
    for (k, l) in theorems.h_diamond(t):
        wvec = fundamental_weight_cl(t, k)
        kernel = highest_vectors(rep, wvec)
        expected = len(fock._highest_crystal_ids(rep, wvec))
        assert len(kernel) == expected


def test_vacuum_pair_is_classically_highest():
    t = from_label("A2even", 2)
    rep = representation(t)
    for i in range(1, t.n + 1):
        assert not (rep.e[i] @ _vac(rep.dim)).entries


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
    assert highest_vectors(rep, (5, 5, 5)) == []


# -- the integer formulation against the rational oracle ------------------------

SUITES = ("verify_relations", "verify_weight_compatibility", "verify_polarization")


def _verdicts(module, rep):
    return [(c.name, c.ok) for name in SUITES for c in getattr(module, name)(rep)]


def _relation_checks(rep):
    """(name, ok, witness) of ``fock.verify_relations`` and of the product form."""
    return ([(c.name, c.ok, c.witness) for c in verify_relations(rep)],
            [(c.name, c.ok, c.witness) for c in oracle.integer_verify_relations(rep)])


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_formulation_matches_oracle(label, n):
    t = from_label(label, n)
    rep, ref = representation(t), oracle.representation(t)
    for name in ("e", "f", "t", "tinv"):
        for i in range(n + 1):
            ours = {rc: oracle.scalar(rational(v))
                    for rc, v in getattr(rep, name)[i].entries.items()}
            assert ours == getattr(ref, name)[i].entries, (name, i)
    # the entrywise and Horner-form relation checks against the product form
    ours, products = _relation_checks(rep)
    assert ours == products
    assert all(ok for _, ok, _ in ours)
    # n = 2, 3 reach only the small-rank collisions of the two ends (the
    # fork rows overlap for D1 at n = 3); the mirrored ends' general case
    # starts at n = 4, where the rational verdicts are not compared
    if n == 4:
        return
    verdicts = _verdicts(fock, rep)
    assert verdicts == _verdicts(oracle, ref)
    assert all(ok for _, ok in verdicts)


@pytest.mark.parametrize("unit", (1, 2))
@pytest.mark.parametrize("n", (2, 3))
def test_clifford_checks_match_oracle(n, unit):
    ours = [(c.name, c.ok) for c in oracle.integer_clifford_relation_checks(n, unit)]
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


def test_checks_are_equal_when_name_verdict_and_witness_are():
    check = fock.Check("demo", False, "entry (0, 0): lhs 1, rhs 0")
    assert check == fock.Check("demo", False, "entry (0, 0): lhs 1, rhs 0")
    assert check != fock.Check("demo", False, "entry (0, 1): lhs 1, rhs 0")
    assert check != fock.Check("demo", True, "entry (0, 0): lhs 1, rhs 0")
    assert check != fock.Check("other", False, "entry (0, 0): lhs 1, rhs 0")
    assert fock.Check("demo", True) == fock.Check("demo", True, None)
    assert check != ("demo", False, "entry (0, 0): lhs 1, rhs 0")
    assert [fock.Check("a", True)] == [fock.Check("a", True)]


# -- the matrix product and the relation checks against the product form --------


def _random_operator(rng, dim, diagonal=False):
    """Entries of one to three terms with coefficients +-1, +-2, so that
    products both merge and cancel."""
    cells = [(r, r) for r in range(dim)] if diagonal else \
        [(r, c) for r in range(dim) for c in range(dim) if rng.random() < 0.4]
    return SparseOperator(dim, {rc: {rng.randrange(-2, 3): rng.choice((-2, -1, 1, 2))
                                     for _ in range(rng.choice((1, 1, 2, 3)))}
                                for rc in cells})


@pytest.mark.parametrize("seed", range(20))
def test_product_matches_the_general_kernel(seed):
    rng = random.Random(seed)
    dim = rng.randrange(1, 7)
    for left, right in ((False, False), (True, False), (False, True), (True, True)):
        a = _random_operator(rng, dim, left)
        b = _random_operator(rng, dim, right)
        assert (a @ b).entries == oracle.integer_product(a, b).entries
        assert a.is_diagonal() >= left and b.is_diagonal() >= right


def _replace(rep, kind, i, edit):
    """Swap generator ``kind`` i of ``rep`` for a copy changed by ``edit``."""
    entries = dict(getattr(rep, kind)[i].entries)
    edit(entries)
    getattr(rep, kind)[i] = SparseOperator(rep.dim, entries)


def _shift_exponent(entries):
    rc = min(entries)
    (e, s), = entries[rc].items()
    entries[rc] = {e + 1: s}


def _add_off_diagonal(entries):
    entries[0, 1] = {0: 1}


def _flip_sign(entries):
    rc = min(entries)
    entries[rc] = {e: -s for e, s in entries[rc].items()}


def _move_off_weight(entries):
    (r, c) = rc = min(entries)
    row = next(row for row in (r ^ 1, r ^ 2) if (row, c) not in entries)
    entries[row, c] = entries.pop(rc)


# mutation -> (the generator it edits, the edit, a check that must then fail)
MUTATIONS = {
    "t exponent": ("t", _shift_exponent, "t({i}) t({i})^-1 = 1"),
    "t off-diagonal": ("t", _add_off_diagonal, "t({i}) t({i})^-1 = 1"),
    "t^-1 sign": ("tinv", _flip_sign, "t({i}) t({i})^-1 = 1"),
    "e exponent": ("e", _shift_exponent, "[e({i}), f({i})] string identity"),
    "e off its weight": ("e", _move_off_weight, "t(2) e({i}) gauge"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("node", (0, 1))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_mutated_relations_match_the_product_form(label, node, mutation):
    kind, edit, must_fail = MUTATIONS[mutation]
    rep = representation(from_label(label, 2))
    _replace(rep, kind, node, edit)
    ours, ref = _relation_checks(rep)
    assert ours == ref
    failed = {name: witness for name, ok, witness in ours if not ok}
    assert must_fail.format(i=node) in failed
    assert all(witness.startswith("entry ") for witness in failed.values())
    if mutation == "t off-diagonal":
        assert not rep.t[node].is_diagonal()  # the entrywise tests do not apply
    if mutation == "e off its weight":
        # the value-blind gauge test and the Serre sums both see the move
        assert any(name.startswith("serre e(") for name in failed)
