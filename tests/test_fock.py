import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import fock_oracle as oracle
from wedge_crystal.cartan import ALL_LABELS, CartanData, from_label, \
    fundamental_weight_cl
from wedge_crystal import crystal, fock, theorems
from wedge_crystal.fock import (Factored, crystal_match, factors, highest_vectors,
                                kashiwara_operators, kron,
                                normalized_highest_vector, omega, parity, psi,
                                psi_star, verify_null_shift,
                                verify_polarization, verify_relations,
                                verify_weight_compatibility)
from wedge_crystal.laurent import RationalScalar, rational

ONE = {0: 1}  # the unit of Z[qs^±1]


def _global(op):
    """The global entries of a factored operator."""
    return oracle.expand(op).entries


def _column(bits, vec):
    """The vector {index: Z[qs^±1] dict} as a one-column operator, one term
    on every bit."""
    return Factored(bits, {((1 << bits) - 1, 0): {(r, 0): v for r, v in vec.items()}})


def _vac(bits):
    return _column(bits, {0: ONE})


def test_vacuum_conditions():
    n = 3
    for a in range(1, n + 1):
        assert not (psi_star(n, a) @ _vac(n)).terms
    for a in range(1, n + 1):
        assert _global(omega(n, a, 1) @ _vac(n)) == {(0, 0): {-1: 1}}


def test_creation_squares_to_zero():
    n = 3
    for a in range(1, n + 1):
        assert not (psi(n, a) @ psi(n, a)).terms
        assert not (psi_star(n, a) @ psi_star(n, a)).terms


def test_transit_identity_on_vacuum():
    n = 2
    assert _global(psi_star(n, 1) @ psi(n, 1) @ _vac(n)) == {(0, 0): ONE}


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
    a = Factored(1, {(1, 0): {(1, 0): ONE}})
    b = Factored(1, {(1, 0): {(0, 1): ONE}})
    assert _global(kron(a, b)) == {(1, 2): ONE}  # low bits from the first factor


def test_middle_action_example():
    fac = factors(from_label("B1", 2))  # single space, n = 2
    # raising moves the occupied bottom row to the top row
    vec = _column(fac.bits, {2: ONE})  # state with only row 1-bar occupied
    assert _global(fac.e[1] @ vec) == {(1, 0): ONE}


def test_doubled_bottom_end_on_vacuum():
    fac = factors(from_label("C1", 2))
    # both factors gain their top-row state (id 1 each)
    assert _global(fac.f[2] @ _vac(fac.bits)) == {(1 + (1 << 2), 0): ONE}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_relations_exact(label):
    checks = verify_relations(factors(from_label(label, 2)))
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_polarization_exact(label):
    checks = verify_polarization(factors(from_label(label, 2)))
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_weight_compatibility(label):
    assert all(c.ok for c in verify_weight_compatibility(factors(from_label(label, 2))))


def test_kashiwara_string_calculus():
    t = from_label("C1", 2)
    fac = factors(t)
    for i in range(3):
        for members, *ops in kashiwara_operators(fac, i):
            # the modified operators have Q(qs) entries; multiply them as such
            et, ft = (oracle.SparseOperator(len(members), {rc: oracle.scalar(v)
                                                           for rc, v in op.items()})
                      for op in ops)
            # the two modified operators are mutually inverse along strings
            assert (et @ ft @ et) == et
            assert (ft @ et @ ft) == ft
            # raising is nilpotent with order bounded by the longest string
            m = max(crystal.weight(t, x)[i] for x in members)
            assert et.power(m + 1).is_zero


@pytest.mark.parametrize("label", ALL_LABELS)
def test_crystal_match_small(label):
    checks = crystal_match(factors(from_label(label, 2)))
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_highest_vector_counts():
    t = from_label("C1", 2)
    fac = factors(t)
    for (k, l) in theorems.h_diamond(t):
        wvec = fundamental_weight_cl(t, k)
        space = highest_vectors(fac, wvec)
        ids = [x for x in range(1 << fac.bits) if crystal.weight(t, x) == wvec]
        expected = theorems.classically_highest(crystal.rules(t), ids)
        assert space.ids == expected
        assert len(space) == len(expected)


def test_vacuum_pair_is_classically_highest():
    t = from_label("A2even", 2)
    fac = factors(t)
    for i in range(1, t.n + 1):
        assert not (fac.e[i] @ _vac(fac.bits)).terms


def test_normalized_highest_vector():
    t = from_label("C1", 2)
    vec, ok, dim = normalized_highest_vector(factors(t), 1, 1)
    assert ok
    target = crystal.v_kl(t, 1, 1)
    assert vec[target] == RationalScalar.one()
    other = crystal.v_kl(t, 1, 0)
    assert other not in vec or vec[other].eval_at_zero() == 0


@pytest.mark.parametrize("n", (2, 3))
def test_null_shift(n):
    checks = verify_null_shift(factors(from_label("A2odd", n)))
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_highest_vectors_are_computed_once_per_weight(capsys, monkeypatch):
    from wedge_crystal.cli import main

    kernels, filters, built = [], [], []
    kernel, highest, build = fock._kernel, fock.classically_highest, fock.factors

    def counted_kernel(rows, cols):
        kernels.append(tuple(cols))
        return kernel(rows, cols)

    def counted_highest(rs, ids):
        filters.append(tuple(ids))
        return highest(rs, ids)

    def kept_factors(t):
        built.append(build(t))
        return built[-1]

    monkeypatch.setattr(fock, "_kernel", counted_kernel)
    monkeypatch.setattr(fock, "classically_highest", counted_highest)
    monkeypatch.setattr(fock, "factors", kept_factors)
    assert main(["fock", "verify", "--type", "A2odd", "--n", "4", "--highest",
                 "--deltaword"]) == 0
    # 5 weights: one elimination and one crystal filter each, over the ids
    # of the weight, kept on the one set of factors that both groups read
    assert len(kernels) == len(set(kernels)) == 5
    assert filters == kernels
    fac, = built
    assert len(fac.highest) == len(kernels)


def _kernel_without_first_vector(monkeypatch):
    kernel = fock._kernel
    monkeypatch.setattr(fock, "_kernel", lambda rows, cols: kernel(rows, cols)[1:])


def test_a_count_mismatch_is_a_failed_check(capsys, monkeypatch):
    from wedge_crystal.cli import main

    _kernel_without_first_vector(monkeypatch)
    assert main(["fock", "verify", "--relations", "--highest", "--type", "C1",
                 "--n", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    at = lines.index("[FAIL] highest-vector count at weight index 0")
    assert lines[at + 1] == "  witness: kernel dimension 2, crystal count 3"
    assert "[FAIL] normalized highest vector (0,0)" in lines
    assert lines[-1] == "48/60 checks passed for C_n^(1) n=2"


def test_the_null_shift_reports_a_count_mismatch(monkeypatch):
    _kernel_without_first_vector(monkeypatch)
    checks = verify_null_shift(factors(from_label("A2odd", 2)))
    failed = {c.name for c in checks if not c.ok}
    assert {"k=1 highest vector (1,1) congruent", "k=1 highest vector (1,0) congruent",
            "k=1 image of (1,1) is a signed unit leading term"} <= failed


def test_a_representative_that_is_not_highest_is_a_failed_check(monkeypatch):
    # the canonical (1, 0) state of C1 n = 2 lowered by f_1 is not
    # classically highest; nothing is normalized at it
    t = from_label("C1", 2)
    fac = factors(t)
    v_kl = crystal.v_kl
    lowered = crystal.f_tilde(t, 1, v_kl(t, 1, 0))
    monkeypatch.setattr(crystal, "v_kl",
                        lambda t, k, l: lowered if (k, l) == (1, 0) else v_kl(t, k, l))
    assert normalized_highest_vector(fac, 1, 0) == ({}, False, 2)
    checks = fock.verify_highest(fac)
    assert [c.name for c in checks if not c.ok] == ["normalized highest vector (1,0)"]


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_columns_match_the_expansion(label, n):
    # every global column of every e_i, f_i and t_i, read from the factors
    # id by id, is that column of the expanded matrix, entry for entry; up
    # to n = 3, so is every global entry
    fac = factors(from_label(label, n))
    dim = 1 << fac.bits
    for kind in ("e", "f", "t"):
        for i in range(n + 1):
            op = getattr(fac, kind)[i]
            by_col = {}
            for (r, c), v in oracle.expand(op).entries.items():
                by_col.setdefault(c, {})[r] = v
            for x in range(dim):
                column = by_col.get(x, {})
                assert fock._column(op, x) == column, (kind, i, x)
                if n <= 3:
                    assert [op.entry(r, x) for r in range(dim)] == \
                        [column.get(r, {}) for r in range(dim)], (kind, i, x)


def test_highest_vectors_generate_their_weight_spaces(monkeypatch):
    # no fock path filters the whole ground set (4^4 ids) by weight
    from wedge_crystal.cli import main

    with_weight = crystal.with_weight

    def no_scan(rs, ids, weight):
        assert ids != range(1 << 8), "with_weight over the whole ground set"
        return with_weight(rs, ids, weight)

    monkeypatch.setattr(crystal, "with_weight", no_scan)
    assert main(["fock", "verify", "--type", "A2odd", "--n", "4", "--highest",
                 "--deltaword"]) == 0


def test_empty_weight_space():
    assert highest_vectors(factors(from_label("C1", 2)), (5, 5, 5)) == []


# -- the integer formulation against the rational oracle ------------------------

SUITES = ("verify_relations", "verify_weight_compatibility", "verify_polarization")


def _verdicts(module, rep):
    return [(c.name, c.ok) for name in SUITES for c in getattr(module, name)(rep)]


def _triples(checks):
    return [(c.name, c.ok, c.witness) for c in checks]


def _relation_checks(fac):
    """(name, ok, witness) of ``fock.verify_relations`` on the factors, and of
    the oracle's global form and all-products form on their expansion."""
    rep = oracle.expand_module(fac)
    return (_triples(verify_relations(fac)), _triples(oracle.global_verify_relations(rep)),
            _triples(oracle.integer_verify_relations(rep)))


def _rational(rep):
    """The oracle's rational generator family holding the entries of ``rep``."""
    ref = oracle.representation(rep.type)
    for name in ("e", "f", "t", "tinv"):
        for i, op in getattr(rep, name).items():
            getattr(ref, name)[i] = oracle.SparseOperator(
                rep.dim, {rc: oracle.scalar(rational(v)) for rc, v in op.entries.items()})
    return ref


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_formulation_matches_oracle(label, n):
    t = from_label(label, n)
    fac = factors(t)
    rep, ref = oracle.expand_module(fac), oracle.representation(t)
    for name in ("e", "f", "t", "tinv"):
        for i in range(n + 1):
            ours = {rc: oracle.scalar(rational(v))
                    for rc, v in getattr(rep, name)[i].entries.items()}
            assert ours == getattr(ref, name)[i].entries, (name, i)
    # the factored relation checks against the global and the product form
    ours, whole, products = _relation_checks(fac)
    assert ours == whole == products
    assert all(ok for _, ok, _ in ours)
    # n = 2, 3 reach only the small-rank collisions of the two ends (the
    # fork rows overlap for D1 at n = 3); the mirrored ends' general case
    # starts at n = 4, where the rational verdicts are not compared
    if n == 4:
        return
    verdicts = _verdicts(fock, fac)
    assert verdicts == _verdicts(oracle, ref)
    assert all(ok for _, ok in verdicts)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.large)))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_factors_match_the_global_form(label, n):
    # the expansion is the global construction entry for entry, and every
    # factored check gives the global form's (name, ok, witness)
    t = from_label(label, n)
    fac = factors(t)
    rep, ref = oracle.expand_module(fac), oracle.global_representation(t)
    for name in ("e", "f", "t", "tinv"):
        for i in range(n + 1):
            assert getattr(rep, name)[i].entries == getattr(ref, name)[i].entries, (name, i)
    assert rep.weights == ref.weights
    for name, global_form in oracle.GLOBAL_CHECKS.items():
        ours = _triples(getattr(fock, name)(fac))
        assert ours == _triples(global_form(rep))
        assert all(ok for _, ok, _ in ours)


@pytest.mark.parametrize("unit", (1, 2))
@pytest.mark.parametrize("n", (2, 3))
def test_clifford_checks_match_oracle(n, unit):
    ours = [(c.name, c.ok) for c in oracle.integer_clifford_relation_checks(n, unit)]
    assert ours == oracle.clifford_relation_checks(n, unit)


def _first_entry(op):
    """(key, (r, c)) of the least local entry of the least term of ``op``."""
    key = min(op.terms)
    return key, min(op.terms[key])


@pytest.mark.parametrize("label", ("C1", "A2odd", "B1"))
def test_sign_mutation_fails_the_same_checks(label):
    t = from_label(label, 3)
    fac = factors(t)
    _replace(fac, "f", 1, _flip_sign)
    _, (r, c) = _first_entry(fac.f[1])
    ours, theirs = _verdicts(fock, fac), _verdicts(oracle, _rational(oracle.expand_module(fac)))
    assert ours == theirs
    failed = [name for name, ok in ours if not ok]
    assert "polarization f(1)" in failed and "polarization e(1)" in failed
    # the witnesses name the flipped entry and its transposed position
    witness = {ch.name: ch.witness for ch in verify_polarization(fac)}
    assert witness["polarization e(1)"].startswith(f"entry {(r, c)}: ")
    assert witness["polarization f(1)"].startswith(f"entry {(c, r)}: ")
    assert all(ch.witness is None for ch in verify_polarization(factors(t)) if ch.ok)
    assert _triples(verify_polarization(fac)) == \
        _triples(oracle.global_verify_polarization(oracle.expand_module(fac)))


def test_witness_shows_both_entries():
    # one term on both bits: the local entries are the global ones
    a = Factored(2, {(3, 0): {(1, 2): {1: 1}, (3, 0): {0: 2}}})
    b = Factored(2, {(3, 0): {(1, 2): {-1: -1}, (3, 0): {0: 2}}})
    check = fock._compare("demo", a, b)
    assert not check.ok
    assert check.witness == "entry (1, 2): lhs qs, rhs -qs^-1"
    check = fock._compare("demo", a, Factored(2, {(3, 0): {(1, 2): {1: 1}}}))
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


# -- the factored algebra against the global forms ------------------------------


def _random_operator(rng, dim, diagonal=False):
    """Entries of one to three terms with coefficients +-1, +-2, so that
    products both merge and cancel."""
    cells = [(r, r) for r in range(dim)] if diagonal else \
        [(r, c) for r in range(dim) for c in range(dim) if rng.random() < 0.4]
    return oracle.GlobalOperator(dim, {rc: {rng.randrange(-2, 3): rng.choice((-2, -1, 1, 2))
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


BITS = 6


@st.composite
def _terms(draw, bits=BITS, count=(1, 3)):
    """A factored sum of ``count`` random terms on ``bits`` bits: a support,
    a character off it, and signed monomial entries on submasks of the
    support."""
    terms = {}
    for _ in range(draw(st.integers(*count))):
        m = draw(st.integers(0, (1 << bits) - 1).filter(lambda m: m.bit_count() <= 3))
        p = draw(st.integers(0, (1 << bits) - 1)) & ~m
        subs = [s for s in range(m + 1) if s & m == s]
        local = draw(st.dictionaries(
            st.tuples(st.sampled_from(subs), st.sampled_from(subs)),
            st.builds(lambda e, s: {e: s}, st.integers(-2, 2), st.sampled_from((-2, -1, 1, 2))),
            min_size=1, max_size=4))
        terms.setdefault((m, p), {}).update(local)
    return Factored(bits, terms)


@settings(max_examples=100, deadline=None)
@given(_terms(), _terms())
# disjoint supports, signs that agree and signs that do not
@example(Factored(BITS, {(0b11, 0b100): {(1, 2): ONE}}),
         Factored(BITS, {(0b1100, 0b1): {(4, 8): ONE, (12, 0): {1: 2}}}))
@example(Factored(BITS, {(0b11, 0b100): {(1, 2): ONE}}),
         Factored(BITS, {(0b1100, 0b1): {(4, 8): ONE, (12, 4): {1: 2}}}))
def test_termwise_commuting_sums_commute(a, b):
    # the parity test proves a b = b a: as factors and as global matrices
    if fock._commute_termwise(a, b):
        assert (a @ b).terms == (b @ a).terms
        assert oracle.expand(a @ b) == oracle.expand(b @ a)


def _refactor(op, rng):
    """``op`` with each term moved onto one more bit of its character, where
    it has one: the same global matrix, with a character that differs
    inside the new support and coincides outside it."""
    out = Factored(op.bits)
    for (m, p), local in op.terms.items():
        if not p:
            out = out + Factored(op.bits, {(m, p): local})
            continue
        bit = rng.choice([1 << k for k in range(op.bits) if p >> k & 1])
        moved = {}
        for (r, c), v in local.items():
            moved[r, c] = v
            moved[r | bit, c | bit] = {e: -s for e, s in v.items()}
        out = out + Factored(op.bits, {(m | bit, p & ~bit): moved})
    return out


def _agree(lhs, rhs):
    """``fock._compare`` on the factors gives the global form's triple."""
    ours = fock._compare("x", lhs, rhs)
    whole = oracle.global_compare("x", oracle.expand(lhs), oracle.expand(rhs))
    assert (ours.ok, ours.witness) == (whole.ok, whole.witness)
    return ours


@settings(max_examples=100, deadline=None)
@given(_terms(), _terms(), st.randoms(use_true_random=False))
def test_factored_algebra_matches_the_global_forms(a, b, rng):
    expand = oracle.expand
    ga, gb = expand(a), expand(b)
    assert expand(a @ b) == ga @ gb
    assert expand(a + b) == ga + gb
    assert expand(a - b) == ga - gb
    assert expand(a.transpose()) == ga.transpose()
    assert expand(a.scale({1: 1, -1: -1})) == ga.scale({1: 1, -1: -1})
    assert expand(kron(a, b)) == oracle.global_kron(ga, gb)
    _agree(a, b)
    _agree(a @ b, b @ a)
    # characters that coincide off the union of the supports: equal sums
    same = _refactor(a, rng)
    assert expand(same) == expand(a)
    assert _agree(a, same).ok and _agree(a + b, same + b).ok
    # terms that cancel across characters
    assert _agree(a - same, Factored(BITS)).ok
    assert _agree(b + a - same, b).ok


@settings(max_examples=100, deadline=None)
@given(_terms(count=(1, 2)), st.integers(1, (1 << BITS) - 1), st.integers(0, (1 << BITS) - 1),
       _terms(count=(0, 2)))
def test_a_difference_that_vanishes_at_spectator_zero(a, flip, second, rest):
    # the same terms under characters changed outside their union U: the
    # two sides agree on every entry whose bits outside U are 0, so the
    # least differing entry is not the least local one at spectator 0.  The
    # difference a - a(flip) - a(second) + a(flip ^ second) also vanishes
    # where the spectator bits meet only one of the two flips
    union = 0
    for m, _ in a.terms:
        union |= m
    flip &= ~union
    second &= ~union

    def moved(chars):
        return Factored(BITS, {(m, p ^ chars): local for (m, p), local in a.terms.items()})

    for lhs, rhs in ((a, moved(flip)), (a + moved(flip ^ second), moved(flip) + moved(second))):
        check = _agree(lhs + rest, rhs + rest)
        if not check.ok:
            row = int(re.match(r"entry \((\d+), \d+\)", check.witness).group(1))
            assert row & ~union


# -- generator mutants: the factored checks against the global forms ------------


def _replace(fac, kind, i, edit):
    """Swap generator ``kind`` i of ``fac`` for a copy whose least term is
    changed by ``edit``: given the term's local entries and its support, it
    edits the entries in place, and it may return bits to flip in the
    term's character, which changes the term's key."""
    op = getattr(fac, kind)[i]
    terms = {k: dict(local) for k, local in op.terms.items()}
    m, p = min(terms)
    local = terms.pop((m, p))
    flip = edit(local, m) or 0
    getattr(fac, kind)[i] = Factored(op.bits, terms) + Factored(op.bits, {(m, p ^ flip): local})


def _shift_exponent(local, support):
    rc = min(local)
    (e, s), = local[rc].items()
    local[rc] = {e + 1: s}


def _add_off_diagonal(local, support):
    local[0, support & -support] = {0: 1}


def _flip_sign(local, support):
    rc = min(local)
    local[rc] = {e: -s for e, s in local[rc].items()}


def _move_off_weight(local, support):
    (r, c) = rc = min(local)
    row = next(r ^ b for b in (1 << k for k in range(support.bit_length()))
               if b & support and (r ^ b, c) not in local)
    local[row, c] = local.pop(rc)


def _drop_entry(local, support):
    del local[min(local)]


def _flip_character(local, support):
    return ~support & (support + 1)  # the least bit outside the support


# mutation -> (the generator it edits, the edit, a check that must then fail,
# or None for a check that the parity test of ``fock._commute_termwise``
# would pass on commuting terms: [e(i), f(j)] = 0 or serre e(i,j) with
# a_ij = 0)
MUTATIONS = {
    "t exponent": ("t", _shift_exponent, "t({i}) t({i})^-1 = 1"),
    "t off-diagonal": ("t", _add_off_diagonal, "t({i}) t({i})^-1 = 1"),
    "t^-1 sign": ("tinv", _flip_sign, "t({i}) t({i})^-1 = 1"),
    "e exponent": ("e", _shift_exponent, "[e({i}), f({i})] string identity"),
    "e off its weight": ("e", _move_off_weight, "t({i}) e({i}) gauge"),
    "e entry dropped": ("e", _drop_entry, "[e({i}), f({i})] string identity"),
    "e character": ("e", _flip_character, None),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("node", (0, 1))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_mutated_relations_match_the_product_form(label, node, mutation):
    kind, edit, must_fail = MUTATIONS[mutation]
    # a character flip shows against a node j with a_ij = 0 that acts on
    # the flipped bit: at n = 4 nodes 0 and 1 have one on every labeling
    # (not at n = 3 on D1, whose two forks share row 2)
    fac = factors(from_label(label, 2 if must_fail else 4))
    _replace(fac, kind, node, edit)
    ours, whole, products = _relation_checks(fac)
    assert ours == whole == products
    failed = {name: witness for name, ok, witness in ours if not ok}
    if must_fail:
        assert must_fail.format(i=node) in failed
    else:
        pairs = [re.fullmatch(r"\[e\((\d+)\), f\((\d+)\)\] = 0|serre e\((\d+),(\d+)\)", name)
                 for name in failed]
        assert any(fac.cd.a[int(p[1] or p[3])][int(p[2] or p[4])] == 0 for p in pairs if p)
    assert all(witness.startswith("entry ") for witness in failed.values())
    if mutation == "t off-diagonal":
        assert not fac.t[node].is_diagonal()  # the entrywise tests do not apply
    if mutation == "e off its weight":
        # the value-blind gauge test and the Serre sums both see the move
        assert any(name.startswith("serre e(") for name in failed)


def test_a_bond_between_commuting_generators_builds_the_serre_sum():
    # the parity test decides only a_ij = 0: with a bond a_13 = -1 put
    # between nodes 1 and 3 of C1 n = 4, whose generators commute term by
    # term, the sum is (2 - [2]) e_3 e_1^2, not 0 on the square
    fac = factors(from_label("C1", 4))
    a = [list(row) for row in fac.cd.a]
    a[1][3] = -1
    fac.cd = CartanData(fac.cd.type, tuple(map(tuple, a)), fac.cd.marks, fac.cd.comarks,
                        fac.cd.norms, fac.cd.d, fac.cd.qi_exp)
    assert fock._commute_termwise(fac.e[1], fac.e[3])
    ours, whole, products = _relation_checks(fac)
    assert ours == whole == products
    assert {"serre e(1,3)", "serre f(1,3)"} <= {name for name, ok, _ in ours if not ok}


# -- the crystal match on one block per class, against the global match ---------


def _matches(fac):
    """(name, ok) of ``fock.crystal_match`` and of the oracle's match over
    every id, each ArithmeticError when it raises one."""
    out = []
    for match in (crystal_match, oracle.global_crystal_match):
        try:
            out.append([(c.name, c.ok) for c in match(fac)])
        except ArithmeticError:
            out.append(ArithmeticError)
    return out


@pytest.mark.parametrize("n", [*range(2, 6),
                               *(pytest.param(n, marks=pytest.mark.large) for n in (6, 7))])
@pytest.mark.parametrize("label", ALL_LABELS)
def test_crystal_match_equals_the_global_match(label, n):
    ours, whole = _matches(factors(from_label(label, n)))
    assert ours == whole and ours is not ArithmeticError


CRYSTAL_MUTATIONS = {"sign flipped": _flip_sign, "exponent shifted": _shift_exponent,
                     "entry dropped": _drop_entry}


@pytest.mark.parametrize("mutation", sorted(CRYSTAL_MUTATIONS))
@pytest.mark.parametrize("label", ALL_LABELS)
def test_mutated_crystal_match_equals_the_global_match(label, mutation):
    # on e and f at nodes 0, 1 and n: the same verdicts, or both raise
    for n in (2, 3):
        for kind in ("e", "f"):
            for node in (0, 1, n):
                fac = factors(from_label(label, n))
                _replace(fac, kind, node, CRYSTAL_MUTATIONS[mutation])
                ours, whole = _matches(fac)
                assert ours == whole, (n, kind, node)


def test_crystal_match_reads_one_block_per_value_of_a_bit_e_and_f_only_read():
    # f_1 times qs where row 3-bar of column one is set: that bit is outside
    # the bits e_1 and f_1 change but inside their supports, so it splits the
    # blocks into two classes, and only the blocks with the bit set break
    n = 3
    fac = factors(from_label("C1", n))
    b = 1 << fock._bit(n, 3)
    fac.f[1] = fac.f[1] @ Factored(fac.bits, {(b, 0): {(0, 0): ONE, (b, b): {1: 1}}})
    mask, bases = fock._classes(fac, 1)
    assert not mask & b and len(bases) == 2
    ours, whole = _matches(fac)
    assert ours == whole
    assert [name for name, ok in ours if not ok] == ["e~(1) lattice-regular",
                                                      "f~(1) matches the crystal adjacency"]
