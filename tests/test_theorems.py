import json
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

import crystal_oracle as oracle
from wedge_crystal.cartan import ALL_LABELS, from_label
from wedge_crystal import bicrystal, crystal
from wedge_crystal import theorems
from wedge_crystal.cli import main
from wedge_crystal.theorems import (UNSET, check_morphism,
                                    decomposition_report, expected_branching,
                                    h_diamond, partition_ids, sorted_labels,
                                    verify_classical_branching,
                                    verify_component_partition,
                                    verify_delta_shift,
                                    verify_involution_commutes,
                                    verify_multiplicities, verify_sigma_range,
                                    verify_sigma_characterization,
                                    verify_spin_decomposition)

DOUBLED = ("C1", "A2even", "A2evenDagger", "A2odd")


def test_h_diamond_examples():
    assert h_diamond(from_label("C1", 2)) == [(0, 0), (0, 1), (0, 2), (1, 0),
                                              (1, 1), (2, 0)]
    assert h_diamond(from_label("A2even", 2)) == [(0, 2), (1, 1), (2, 0)]
    assert h_diamond(from_label("A2odd", 2)) == [(0, 1), (0, 2), (1, 1), (2, 0)]
    assert h_diamond(from_label("A2evenDagger", 3)) == [(0, 0), (1, 0), (2, 0),
                                                        (3, 0)]
    with pytest.raises(ValueError):
        h_diamond(from_label("B1", 3))


def test_component_partition_counts():
    r = verify_component_partition(from_label("C1", 2))
    assert r.passed
    assert r.stats["components"] == 6
    assert sum(r.stats["sizes"].values()) == 16


@pytest.mark.parametrize("token", DOUBLED)
@pytest.mark.parametrize("n", (2, 3))
def test_component_partition(token, n):
    assert verify_component_partition(from_label(token, n)).passed


def _split_off(monkeypatch, t, x, into=None):
    """Make ``partition_ids`` answer the partition of ``t`` with ``x`` moved
    into a class of its own, or into the class of the id ``into``."""
    whole = partition_ids(t)
    label = array("I", whole.label)
    label[x] = len(whole.members) if into is None else whole.label[into]
    members = tuple(array("I") for _ in range(max(label) + 1))
    for y, c in enumerate(label):
        members[c].append(y)
    monkeypatch.setattr(theorems, "partition_ids",
                        lambda t, rs=None: theorems.Partition(label, members))


def test_component_count_check_can_fail(capsys, monkeypatch):
    # split one id that represents no component off into a class of its own
    t = from_label("C1", 2)
    reps = {crystal.v_kl(t, *pair) for pair in h_diamond(t)}
    _split_off(monkeypatch, t, next(y for y in crystal.all_elements(t)
                                    if y not in reps))
    res = verify_component_partition(t)
    assert not res.passed
    assert res.discrepancies == ["7 components found, expected 6"]
    assert res.stats["components"] == 7
    assert main(["verify", "--suite", "prop41", "--type", "C1", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[prop41] FAIL C_n^(1) n=2\n")
    assert "7 components found, expected 6" in out


def test_shared_component_checks_can_fail(monkeypatch):
    # split one id of the shared k=1 component off: that component is no
    # longer its level set, and no longer a union of involution orbits
    t = from_label("A2odd", 4)
    reps = {crystal.v_kl(t, *pair) for pair in h_diamond(t)}
    shared = partition_ids(t).class_of(crystal.v_kl(t, 1, 3))
    assert len(shared) == 16
    _split_off(monkeypatch, t, next(y for y in shared if y not in reps))
    res = verify_sigma_characterization(t)
    assert not res.passed
    # the split-off id 10/10/00/10 (11) has sigma (0, 3), so it stays in the
    # level set; its mate 10/10/00/01 (131) has sigma (1, 2), so its sigma
    # puts it in the level set too, and it is still a member
    assert crystal.text(t, 11) == "10/10/00/10"
    assert res.discrepancies == ["k=1: component has 15 elements, level set 16; "
                                 "difference 10/10/00/10"]
    res = verify_multiplicities(t)
    assert not res.passed
    assert res.discrepancies == ["k=1: quotient size 8 does not halve 15"]


def test_same_component_for_the_shared_pair():
    t = from_label("A2odd", 3)
    label = partition_ids(t).label
    for k in (1, 2):
        assert label[crystal.v_kl(t, k, 3 - k)] == \
            label[crystal.v_kl(t, k, 2 - k)]


@pytest.mark.parametrize("token", DOUBLED)
@pytest.mark.parametrize("n", (2, 3))
def test_classical_branching(token, n):
    assert verify_classical_branching(from_label(token, n)).passed


def test_branching_shapes():
    # one classical summand per component for the all-double labeling
    t = from_label("C1", 3)
    rep = decomposition_report(t)
    for row in rep["components"]:
        k = row["key"][0]
        assert row["branching"] == [k]
    # staircase for the mixed labeling
    t = from_label("A2even", 3)
    rep = decomposition_report(t)
    for row in rep["components"]:
        k = row["key"][0]
        assert row["branching"] == list(range(k + 1))
    # doubled ladder for the fork labeling, simple ladder at the top index
    t = from_label("A2odd", 3)
    rep = decomposition_report(t)
    by_key = {tuple(row["key"]): row for row in rep["components"]}
    assert by_key[(2, 1)]["branching"] == [0, 0, 2, 2]
    assert by_key[(3, 0)]["branching"] == [1, 3]
    assert by_key[(1, 2)]["branching"] == [1, 1]


@pytest.mark.parametrize("token", ("A2even", "A2odd"))
def test_branching_labels_sort_numerically(token):
    # at n >= 10 a label has two digits; text order would put 10 before 2
    t = from_label(token, 10)
    expected = expected_branching(t, 10, 0)
    assert 10 in expected
    assert sorted_labels(reversed(expected)) == expected
    assert sorted_labels([None, 10, 2, None, 0]) == [0, 2, 10, None, None]


def test_unmatched_labels_are_reported_not_raised(monkeypatch):
    t = from_label("A2even", 3)
    monkeypatch.setattr(theorems, "classify_weight", lambda t, w: None)
    rep = decomposition_report(t)
    assert rep["components"][-1]["branching"] == [None] * 4
    res = verify_classical_branching(t)
    assert not res.passed
    assert any("unexpected weight" in d for d in res.discrepancies)


def _computed_partitions(t):
    """The partitions computed since the partition cache was last cleared,
    checked to be exactly the full one of ``t`` and, on matrices, its
    classical one: the count of cache misses, then the number of ids each
    labels, looked up again as cache hits."""
    keys = [(t,), (t, crystal.rules(t)[1:])] if t.doubled else [(t,)]
    misses = partition_ids.cache_info().misses
    sizes = [len(partition_ids(*key).label) for key in keys]
    assert partition_ids.cache_info().misses == misses
    return misses, sizes


def test_branching_union_find_covers_each_state_once():
    for token in DOUBLED:
        t = from_label(token, 3)
        partition_ids.cache_clear()
        assert verify_classical_branching(t).passed
        # the full partition of the ground set, then its classical partition
        assert _computed_partitions(t) == (2, [4 ** 3, 4 ** 3])


@pytest.mark.parametrize("token", ALL_LABELS)
def test_verify_all_partitions_each_ground_set_once(capsys, token):
    # one full partition per type, shared by every suite, plus the
    # classical one on matrices
    partition_ids.cache_clear()
    assert main(["verify", "--suite", "all", "--type", token, "--n", "3"]) == 0
    t = from_label(token, 3)
    count = 2 if t.doubled else 1
    assert _computed_partitions(t) == (count, [crystal.ground_size(t)] * count)


@pytest.mark.parametrize("token", ALL_LABELS)
def test_partition_equals_the_union_find_oracle(token):
    # every labeling, with all rules and with the classical ones, on
    # matrices up to n = 6 and vectors up to n = 12
    for n in range(2, 7 if from_label(token, 2).doubled else 13):
        t = from_label(token, n)
        for rs in (None, crystal.rules(t)[1:]):
            assert partition_ids(t, rs) == oracle.partition_by_union_find(t, rs)


# the ground set the random rules act on: the 64 matrices of A2odd at n = 3
WALKED = from_label("A2odd", 3)
RANDOM_RULES = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def rule_sets(draw, bits=6):
    """One to four rules with any masks and patterns on ``bits``-bit ids,
    whole-id rules (m2 = 0, pf2 = pe2 = -1) among them."""
    full = (1 << bits) - 1
    out = []
    for _ in range(draw(st.integers(1, 4))):
        m1 = draw(st.integers(1, full))
        pf1, pe1 = draw(st.integers(0, full)) & m1, draw(st.integers(0, full)) & m1
        if draw(st.booleans()):
            out.append((m1, pf1, pe1, 0, -1, -1))
            continue
        m2 = draw(st.integers(1, full))
        pf2, pe2 = draw(st.integers(0, full)) & m2, draw(st.integers(0, full)) & m2
        out.append((m1, pf1, pe1, m2, pf2, pe2))
    return tuple(out)


# the step tables that crystal.steps compiles, and the ground-set passes that
# read them, against crystal.step_f and crystal.step_e, on rules of no
# labeling's shape

@RANDOM_RULES
@given(rule_sets())
def test_step_tables_step_as_step_f_and_step_e(rs):
    for rule in rs:
        mask, f, e = crystal.steps(rule)
        for x in crystal.all_elements(WALKED):
            for table, step in ((f, crystal.step_f), (e, crystal.step_e)):
                flip = table[x & mask]
                assert (x ^ flip if flip else None) == step(rule, x)


@RANDOM_RULES
@given(rule_sets())
# a column rule and a whole-id rule whose masks cover all six bits, so that
# no bit lies outside the mask
@example(((0b000111, 0b000001, 0b000100, 0b111000, 0b001000, 0b100000),))
@example(((0b111111, 0b001001, 0b100100, 0, -1, -1), (0b001100, 0b000100, 0b001000, 0, -1, -1)))
# a rule whose lowering never applies, next to one that does
@example(((0b001100, -1, 0, 0, -1, -1), (0b000011, 0b000001, 0b000010, 0, -1, -1)))
def test_partition_sweep_steps_as_step_f(rs):
    assert partition_ids(WALKED, rs) == oracle.partition_by_union_find(WALKED, rs)


@RANDOM_RULES
@given(rule_sets())
def test_highest_filter_steps_as_step_e(rs):
    ids = crystal.all_elements(WALKED)
    assert theorems.classically_highest(rs, ids) == \
        oracle.classically_highest_by_steps(rs, ids)


def _match(t, tables, root1, root2):
    """The isomorphism walk of ``cor57`` from ``root1`` matched to ``root2``:
    its witness and the ids it matched."""
    image = array("I", [UNSET]) * crystal.ground_size(t)
    image[root1] = root2
    todo = [root1]
    return check_morphism(tables, tables, image, todo), todo


def _commutation_note(t, witness):
    """A witness of the involution walk in the words of
    ``oracle.involution_commutes_by_steps`` at k = 1."""
    a, _, i, _, x, y = witness
    kind = "defined-ness " if x is None or y is None else ""
    return f"k=1: commutation {kind}fails at {crystal.text(t, a)}, i={i}"


@RANDOM_RULES
@given(rule_sets(), st.lists(st.integers(0, 63), min_size=2, max_size=6))
def test_isomorphism_walk_steps_as_step_f_and_step_e(rs, roots):
    # two components matched from their roots, as cor57 walks them
    tables = [crystal.steps(rule) for rule in rs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crystal, "rules", lambda t: rs)
        partition_ids.cache_clear()
        try:
            p = partition_ids(WALKED)
            for a in roots:
                for b in roots:
                    witness, todo = _match(WALKED, tables, a, b)
                    verdict = witness is None and \
                        len(todo) == len(p.class_of(a)) == len(p.class_of(b))
                    assert verdict == oracle.isomorphic_components_by_steps(WALKED, a, b)
        finally:
            partition_ids.cache_clear()


@RANDOM_RULES
@given(rule_sets(), st.integers(1, 63))
def test_involution_walk_steps_as_step_e_and_step_f(rs, shift):
    # one class holding the whole ground set, and a mate x ^ shift for
    # every id, so that every step lands on an id with a mate
    tables = [crystal.steps(rule) for rule in rs]
    ground = crystal.all_elements(WALKED)
    whole = theorems.Partition(array("I", [0]) * len(ground), (array("I", ground),))
    mate = array("I", [x ^ shift for x in ground])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crystal, "rules", lambda t: rs)
        mp.setattr(theorems, "partition_ids", lambda t, rs=None: whole)
        mp.setattr(bicrystal, "varsigma", lambda t, k, x: x ^ shift)
        mp.setattr(theorems, "shared_mates", lambda t, k: mate)
        # the walk from the smaller member of each orbit, as prop46 walks
        # it; every id has a mate, so nothing is written
        todo = [x for x in ground if x < mate[x]]
        seeds = list(todo)
        witness = check_morphism(tables, tables, mate, todo)
        assert todo == seeds
        assert list(mate) == [x ^ shift for x in ground]
        for k in (1, 2):
            notes = oracle.involution_commutes_by_steps(WALKED, k).discrepancies
            res = verify_involution_commutes(WALKED, k)
            if witness is None:
                assert notes == [] and res.passed and res.discrepancies == []
            else:
                assert _commutation_note(WALKED, witness) == \
                    notes[0].replace(f"k={k}:", "k=1:", 1)
                assert not res.passed
                assert res.discrepancies == [
                    f"k={k}: commutation fails: "
                    f"{theorems.witness_text(WALKED, witness, mate)}"]


def test_a_wrong_edge_fails_prop41_and_the_search_cross_check(capsys, monkeypatch):
    # widening the mask of rule 0 joins the components of (1,1) and (3,0);
    # the component search under the true rules still finds them apart
    t = from_label("C1", 3)
    rs = crystal.rules(t)
    searched = {pair: crystal.component(t, crystal.v_kl(t, *pair)).vertices
                for pair in h_diamond(t)}
    assert rs[0] == (36, 36, 0, 0, -1, -1)
    wrong = crystal.Rules([(46, 36, 0, 0, -1, -1), *rs[1:]])
    monkeypatch.setattr(crystal, "rules", lambda t: wrong)
    partition_ids.cache_clear()
    try:
        assert _failures(capsys, "prop41", "C1", 3) == [
            "representatives are not in pairwise distinct components",
            "9 components found, expected 10"]
        p = partition_ids(t)
        assert [pair for pair, vertices in searched.items()
                if vertices != tuple(p.class_of(crystal.v_kl(t, *pair)))] == \
            [(1, 1), (3, 0)]
    finally:
        partition_ids.cache_clear()


# the ids keep the names of the runs that, before the suites read the shared
# partition, made 8 and 10 component searches
@pytest.mark.parametrize("token", ("A2odd", "C1"), ids=("A2odd-8", "C1-10"))
def test_verify_all_component_searches(capsys, monkeypatch, token):
    # no suite searches a component or builds a quotient graph
    calls = []
    component, quotient_graph = crystal.component, bicrystal.quotient_graph

    def counting(t, x):
        calls.append(x)
        return component(t, x)

    def counting_quotient(g, k):
        calls.append(k)
        return quotient_graph(g, k)

    monkeypatch.setattr(crystal, "component", counting)
    monkeypatch.setattr(bicrystal, "quotient_graph", counting_quotient)
    partition_ids.cache_clear()
    assert main(["verify", "--suite", "all", "--type", token, "--n", "4"]) == 0
    assert calls == []


@pytest.mark.parametrize("n", (2, 3))
def test_sigma_range_and_involution(n):
    t = from_label("A2odd", n)
    assert verify_sigma_range(t).passed
    assert verify_involution_commutes(t).passed


def test_involution_computes_one_mate_per_vertex(monkeypatch):
    # prop46 and cor57 read one table of mates, thm58 none: one _mate per
    # member
    calls = []
    mate = bicrystal._mate

    def counting(n, k, x):
        calls.append((k, x))
        return mate(n, k, x)

    monkeypatch.setattr(bicrystal, "_mate", counting)
    partition_ids.cache_clear()
    t = from_label("A2odd", 4)
    assert verify_involution_commutes(t).passed
    assert verify_sigma_characterization(t).passed
    assert verify_multiplicities(t).passed
    assert calls == [(k, x) for k in (1, 2, 3)
                     for x in crystal.component(t, crystal.v_kl(t, k, 4 - k)).vertices]


@pytest.mark.parametrize("token", DOUBLED)
@pytest.mark.parametrize("n", (2, 3))
def test_sigma_characterization(token, n):
    assert verify_sigma_characterization(from_label(token, n)).passed


@pytest.mark.parametrize("n", range(2, 7))
def test_sigma_characterization_reads_no_mates(monkeypatch, n):
    # on the fork-plus-double type the level sets come from sigma alone
    def unused(*args):
        raise AssertionError("thm58 read the order-two symmetry")

    monkeypatch.setattr(theorems, "shared_mates", unused)
    monkeypatch.setattr(bicrystal, "varsigmas", unused)
    assert verify_sigma_characterization(from_label("A2odd", n)).passed


@pytest.mark.parametrize("token", DOUBLED)
def test_sigma_characterization_reads_sigma_one_component_at_a_time(monkeypatch, token):
    t = from_label(token, 5)
    largest = max(map(len, partition_ids(t).members))
    sizes = []
    sigmas = bicrystal.sigmas

    def counting(n, ids):
        sizes.append(len(ids))
        return sigmas(n, ids)

    monkeypatch.setattr(bicrystal, "sigmas", counting)
    assert verify_sigma_characterization(t).passed
    assert sizes and max(sizes) <= largest < crystal.ground_size(t)


def test_sigma_level_sets_are_components():
    # every component of the all-double labeling is a level set
    t = from_label("C1", 3)
    from wedge_crystal import bicrystal

    for (k, l) in h_diamond(t):
        comp = set(crystal.component(t, crystal.v_kl(t, k, l)).vertices)
        level = {x for x in crystal.all_elements(t)
                 if bicrystal.sigma(3, x) == (3 - k - l, l)}
        assert comp == level


def test_component_isomorphism_between_level_sets(monkeypatch):
    # same k, different l: isomorphic colored digraphs
    t = from_label("C1", 3)
    from wedge_crystal.cartan import fundamental_weight_cl

    def roots(k, l):
        target = fundamental_weight_cl(t, k)
        return [v for v in partition_ids(t).class_of(crystal.v_kl(t, k, l))
                if crystal.weight(t, v) == target]

    r1, r2, r3 = roots(1, 0), roots(1, 2), roots(2, 0)
    assert len(r1) == len(r2) == len(r3) == 1
    tables = [crystal.steps(rule) for rule in crystal.rules(t)]
    witness, todo = _match(t, tables, r1[0], r2[0])
    assert witness is None and len(todo) == 6
    assert _match(t, tables, r1[0], r3[0])[0] is not None
    # a match must cover both partition classes: with one id of the l=2
    # component split off, the walk covers more than its class
    comp = partition_ids(t).class_of(crystal.v_kl(t, 1, 2))
    _split_off(monkeypatch, t, next(y for y in comp
                                    if y not in (r2[0], crystal.v_kl(t, 1, 2))))
    assert verify_multiplicities(t).discrepancies == [
        "k=1: component at l=2 not isomorphic to l=0: the walk from 01/01/00 "
        "matched 6 ids, the components have 6 and 5"]


def test_a_broken_isomorphism_names_its_witness(capsys, monkeypatch):
    # the (1, 2) component loses its f_2 edge, in whole-id tables of rule 2:
    # it keeps its ids (its edges form a cycle), its weights and its
    # extremal-weight element, but it is no longer isomorphic to (1, 0)
    t = from_label("C1", 3)
    rule = crystal.rules(t)[2]
    real = crystal.steps
    mask, f, e = real(rule)
    full = crystal.ground_size(t) - 1
    wf = {x: f[x & mask] for x in range(full + 1)}
    we = {x: e[x & mask] for x in range(full + 1)}
    comp = partition_ids(t).class_of(crystal.v_kl(t, 1, 2))
    u = next(x for x in comp if wf[x])
    wf[u] = we[u ^ wf[u]] = 0
    monkeypatch.setattr(crystal, "steps",
                        lambda r: (full, wf, we) if r == rule else real(r))
    partition_ids.cache_clear()
    try:
        assert partition_ids(t).class_of(crystal.v_kl(t, 1, 2)) == comp
        # the walk from the (1, 0) side names the element whose image lost
        # its f_2 step, that image, and both targets
        assert _failures(capsys, "cor57", "C1", 3) == [
            "k=1: component at l=2 not isomorphic to l=0: f_2 takes 01/00/01 "
            "to 00/01/01, and its image 10/00/10 to undefined"]
    finally:
        partition_ids.cache_clear()


@pytest.mark.parametrize("n", (3, 4))
def test_multiplicity_scan_finds_every_id_of_the_extremal_weight(monkeypatch, n):
    # with the whole ground set standing in for each component, the scan for
    # the extremal weight must count what a brute-force pass over the
    # per-id weights counts
    t = from_label("C1", n)
    ground = crystal.all_elements(t)
    expected = []
    for k, l in theorems.h_diamond(t):
        if k == 0:
            continue
        target = theorems.fundamental_weight_cl(t, k)
        count = sum(crystal.weight(t, x) == target for x in ground)
        if count != 1:
            expected.append(f"(k,l)=({k},{l}): weight multiplicity {count} "
                            f"at the extremal weight")
    assert expected
    monkeypatch.setattr(theorems.Partition, "class_of", lambda self, x: ground)
    found = [d for d in verify_multiplicities(t).discrepancies if "multiplicity" in d]
    assert found == expected


@pytest.mark.parametrize("token", DOUBLED)
@pytest.mark.parametrize("n", (2, 3))
def test_multiplicities(token, n):
    r = verify_multiplicities(from_label(token, n))
    assert r.passed
    if token == "C1":
        assert r.stats["multiplicities"][1] == n
    if token == "A2odd":
        assert r.stats["multiplicities"][0] == 2


@pytest.mark.parametrize("token", ("B1", "D1", "D2"))
@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_spin_decomposition(token, n):
    r = verify_spin_decomposition(from_label(token, n))
    assert r.passed
    assert r.stats["components"] == (2 if token == "D1" else 1)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_delta_shift(n):
    assert verify_delta_shift(from_label("A2odd", n)).passed


def test_report_sizes_sum():
    for token in DOUBLED:
        t = from_label(token, 3)
        rep = decomposition_report(t)
        assert rep["total"] == 4 ** 3
    rep = decomposition_report(from_label("D1", 3))
    assert rep["total"] == 2 ** 3
    assert [row["size"] for row in rep["components"]] == [4, 4]


def test_suite_type_guards():
    with pytest.raises(ValueError):
        verify_component_partition(from_label("B1", 3))
    with pytest.raises(ValueError):
        verify_spin_decomposition(from_label("C1", 3))
    with pytest.raises(ValueError):
        verify_sigma_range(from_label("C1", 3))
    with pytest.raises(ValueError):
        verify_delta_shift(from_label("A2even", 3))


def _id(t, text):
    """The id of the element with the given display form."""
    return next(x for x in crystal.all_elements(t) if crystal.text(t, x) == text)


def _patch_at(monkeypatch, module, name, x, result):
    """Make the list kernel ``module.name`` answer ``result`` at the id
    ``x`` of its last argument, a sequence of ids, and what it answered
    before at every other id."""
    real = getattr(module, name)

    def patched(*args):
        return [result if y == x else r for y, r in zip(args[-1], real(*args))]

    monkeypatch.setattr(module, name, patched)


def _failures(capsys, suite, token, n, k=None):
    """Run one suite through the CLI, check that it FAILs, and return its
    discrepancies."""
    argv = ["verify", "--suite", suite, "--type", token, "--n", str(n)]
    if k is not None:
        argv += ["--k", str(k)]
    assert main(argv) == 1
    head, _, dump = capsys.readouterr().out.partition("\n")
    assert head == f"[{suite}] FAIL {from_label(token, n).label} n={n}"
    (failure,) = json.loads(dump)["failures"]
    return failure["discrepancies"]


# on the shared k=1 component of A2odd at n=3, 10/10/00 has sigma (0, 2) and
# mate 10/01/00, and 10/01/00 has sigma (1, 1)
@pytest.mark.parametrize("x, s, expected", [
    ("10/01/00", (0, 3), ["k=1: sigma(0, 3) of 10/01/00 out of range"]),
    ("10/10/00", (1, 2), ["k=1: sigma(1, 2) of 10/10/00 out of range",
                          "k=1: odd raise-count in the long-phi half"]),
    # an allowed sigma, but in the other half
    ("10/10/00", (1, 1), ["k=1: halves have sizes 5 and 7"]),
], ids=("out-of-range", "odd-raise-count", "halves"))
def test_sigma_range_messages(capsys, monkeypatch, x, s, expected):
    t = from_label("A2odd", 3)
    _patch_at(monkeypatch, bicrystal, "sigmas", _id(t, x), s)
    assert _failures(capsys, "lem44", "A2odd", 3, 1) == expected


@pytest.mark.parametrize("x, mate, expected", [
    # the member whose mate was 11/10/10 keeps it, so order two fails there
    # too; the walk names the first step whose target has the wrong mate
    ("11/10/10", "00/00/00", [
        "k=1: involution leaves the component at 11/10/10",
        "k=1: involution not of order two at 11/10/01",
        "k=1: commutation fails: f_3 takes 00/10/10 to 11/10/10 with image "
        "00/00/00, and its image 00/10/01 to 11/10/01"]),
    ("11/10/10", "11/10/10", [
        "k=1: fixed point at 11/10/10",
        "k=1: involution not of order two at 11/10/01",
        "k=1: commutation fails: f_3 takes 00/10/10 to 11/10/10 with image "
        "11/10/10, and its image 00/10/01 to 11/10/01"]),
    # the mate of another orbit's member
    ("10/10/00", "10/00/10", [
        "k=1: involution not of order two at 10/10/00",
        "k=1: involution not of order two at 10/01/00",
        "k=1: commutation fails: e_0 takes 10/10/00 to 10/11/01 with image "
        "10/11/10, and its image 10/00/10 to 10/01/11"]),
], ids=("leaves", "fixed-point", "order-commutation-definedness"))
def test_involution_messages(capsys, monkeypatch, x, mate, expected):
    t = from_label("A2odd", 3)
    real = theorems.shared_mates

    def wrong(t, k):
        table = array("I", real(t, k))
        table[_id(t, x)] = _id(t, mate)
        return table

    monkeypatch.setattr(theorems, "shared_mates", wrong)
    assert _failures(capsys, "prop46", "A2odd", 3, 1) == expected


def test_involution_names_a_commutation_failure_once_per_orbit(monkeypatch):
    # swap the mates of two orbits: still of order two and without fixed
    # points, but no longer commuting with the operators
    t = from_label("A2odd", 3)
    real = bicrystal.varsigma
    a, b = _id(t, "10/10/00"), _id(t, "10/00/10")
    swapped = {a: real(t, 1, b), real(t, 1, b): a, b: real(t, 1, a), real(t, 1, a): b}
    mate = {x: swapped.get(x, real(t, 1, x))
            for x in partition_ids(t).class_of(crystal.v_kl(t, 1, 2))}
    monkeypatch.setattr(theorems, "shared_mates", lambda t, k: mate)
    res = verify_involution_commutes(t, 1)
    assert not res.passed
    (note,) = res.discrepancies
    assert note.startswith("k=1: commutation fails: ")
    # each orbit's statement is checked, and named, at its smaller member
    named = _id(t, note.split(" takes ")[1].split(" to ")[0])
    assert named < mate[named]


def test_the_involution_walk_writes_no_mate(monkeypatch):
    # a failing walk reads the shared table of mates and leaves it as it was
    t = from_label("A2odd", 3)
    partition_ids.cache_clear()
    table = theorems.shared_mates(t, 1)
    before = array("I", table)
    x, y = _id(t, "10/10/00"), _id(t, "10/00/10")
    swapped = array("I", table)
    swapped[x], swapped[y] = table[y], table[x]
    swapped[table[x]], swapped[table[y]] = y, x
    monkeypatch.setattr(theorems, "shared_mates", lambda t, k: swapped)
    copy = array("I", swapped)
    assert not verify_involution_commutes(t, 1).passed
    assert swapped == copy
    monkeypatch.undo()
    assert verify_involution_commutes(t, 1).passed
    assert theorems.shared_mates(t, 1) == before


def test_the_involution_walk_checks_the_members_with_mates(monkeypatch):
    # one member without a mate no longer hides the commutation failure of
    # two swapped orbits.  The walk reaches the member without a mate before
    # it fails, and gives it an image in its copy; the table is unchanged
    t = from_label("A2odd", 3)
    table = theorems.shared_mates(t, 1)
    x, y = _id(t, "10/10/00"), _id(t, "10/00/10")
    patched = array("I", table)
    patched[x], patched[y] = table[y], table[x]
    patched[table[x]], patched[table[y]] = y, x
    lone = _id(t, "10/11/01")
    patched[lone] = UNSET
    monkeypatch.setattr(theorems, "shared_mates", lambda t, k: patched)
    copy = array("I", patched)
    res = verify_involution_commutes(t, 1)
    assert not res.passed
    assert f"k=1: no mate for {crystal.text(t, lone)} " \
           f"(phi={bicrystal.sigma(3, lone)[1]})" in res.discrepancies
    assert any(note.startswith("k=1: commutation fails: ") for note in res.discrepancies)
    assert patched == copy


def test_a_mutant_outside_the_involution_domain_fails_without_raising(capsys, monkeypatch):
    # rule 2 of A2odd at n = 4 with pf and pe of its first column swapped:
    # elements of the shared components fall outside the involution's domain
    t = from_label("A2odd", 4)
    rs = crystal.rules(t)
    m1, pf1, pe1, m2, pf2, pe2 = rs[2]
    wrong = crystal.Rules([*rs[:2], (m1, pe1, pf1, m2, pf2, pe2), *rs[3:]])
    monkeypatch.setattr(crystal, "rules", lambda t: wrong)
    partition_ids.cache_clear()
    try:
        assert main(["verify", "--suite", "all", "--type", "A2odd", "--n", "4"]) == 1
    finally:
        partition_ids.cache_clear()
    out, err = capsys.readouterr()
    assert "internal_error" not in out + err
    lines = out.split("\n")
    assert lines[:7] == [f"[{name}] FAIL {t.label} n=4" for name in (
        "prop41", "thm42", "thm58", "cor57", "lem44", "prop46", "deltaword")]
    found = {f["suite"]: f["discrepancies"]
             for f in json.loads("\n".join(lines[7:]))["failures"]}
    assert found["prop41"] == ["representatives are not in pairwise distinct components",
                               "4 components found, expected 6"]
    # thm58 reads no mates: it names the difference from the level set
    assert found["thm58"][0] == ("k=1: component has 128 elements, level set 16; "
                                 "difference 10/00/00/00, 00/10/00/00, 00/00/10/00, "
                                 "00/00/00/10")
    # the k = 1 and k = 3 components are one here; each k reads its own
    # mates, and cor57 asks for them first
    for suite in ("cor57", "prop46"):
        assert "k=1: no mate for 10/00/00/00 (phi=1)" in found[suite]
        assert "k=3: no mate for 00/10/10/10 (phi=3)" in found[suite]


@pytest.mark.parametrize("token, move, expected", [
    ("D1", ("1/1/1", None), ["3 components, expected 2"]),
    ("D1", ("1/0/0", "0/0/0"), ["the two canonical representatives share a component"]),
    ("B1", ("1/0/0", None), ["2 components, expected 1",
                           "expected a single component containing both "
                           "representatives"]),
], ids=("count", "shared", "split"))
def test_spin_component_messages(capsys, monkeypatch, token, move, expected):
    t = from_label(token, 3)
    x, into = (None if y is None else _id(t, y) for y in move)
    _split_off(monkeypatch, t, x, into)
    assert _failures(capsys, "spin", token, 3) == expected


def test_spin_weight_messages(capsys, monkeypatch):
    t = from_label("B1", 3)
    top = crystal.v_spin(t, 3)
    assert top == 0 and crystal.text(t, 7) == "1/1/1"
    # the top representative, first in the one component, takes the weight
    # of another member
    _patch_at(monkeypatch, crystal, "rule_weights", top, crystal.weight(t, 7))
    assert _failures(capsys, "spin", "B1", 3) == [
        f"repeated weight inside component of {crystal.text(t, top)}",
        "weight of the k=3 representative is (1, 0, 0, -1)"]
    monkeypatch.undo()
    _patch_at(monkeypatch, crystal, "rule_weights", top, (0, 0, 0, 0))
    assert _failures(capsys, "spin", "B1", 3) == [
        "weight of the k=3 representative is (0, 0, 0, 0)"]


@pytest.mark.parametrize("x, result, expected", [
    ("10/10/00", "10/10/00", ["k=1: word sends 10/10/00 to 10/10/00, wanted 10/01/00"]),
    ("10/01/00", "10/01/00", ["k=1: word sends 10/01/00 to 10/01/00, wanted 10/10/00"]),
], ids=("forward", "back"))
def test_delta_shift_messages(capsys, monkeypatch, x, result, expected):
    # the word of k=1 should swap 10/10/00 and 10/01/00
    t = from_label("A2odd", 3)
    x = _id(t, x)
    real = crystal.weyl_action

    def action(t, word, y):
        return real(t, word, y) if y != x else _id(t, result)

    monkeypatch.setattr(crystal, "weyl_action", action)
    assert _failures(capsys, "deltaword", "A2odd", 3, 1) == expected
