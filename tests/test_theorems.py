import pytest

from wedge_crystal.cartan import ALL_LABELS, from_label
from wedge_crystal import bicrystal, crystal
from wedge_crystal import theorems
from wedge_crystal.cli import main
from wedge_crystal.theorems import (decomposition_report, expected_branching,
                                    h_diamond, isomorphic_components,
                                    partition_ids, sorted_labels,
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
    for row in rep.rows:
        k = row.key[0]
        assert row.branching == [k]
    # staircase for the mixed labeling
    t = from_label("A2even", 3)
    rep = decomposition_report(t)
    for row in rep.rows:
        k = row.key[0]
        assert row.branching == list(range(k + 1))
    # doubled ladder for the fork labeling, simple ladder at the top index
    t = from_label("A2odd", 3)
    rep = decomposition_report(t)
    by_key = {row.key: row for row in rep.rows}
    assert by_key[(2, 1)].branching == [0, 0, 2, 2]
    assert by_key[(3, 0)].branching == [1, 3]
    assert by_key[(1, 2)].branching == [1, 1]


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
    assert rep.rows[-1].branching == [None] * 4
    res = verify_classical_branching(t)
    assert not res.passed
    assert any("unexpected weight" in d for d in res.discrepancies)


def _record_union_finds(monkeypatch):
    """Record the size of every UnionFind allocated from now on."""
    sizes = []
    init = theorems.UnionFind.__init__

    def recording(self, size):
        sizes.append(size)
        init(self, size)

    monkeypatch.setattr(theorems.UnionFind, "__init__", recording)
    return sizes


def test_branching_union_find_covers_each_state_once(monkeypatch):
    sizes = _record_union_finds(monkeypatch)
    for token in DOUBLED:
        sizes.clear()
        partition_ids.cache_clear()
        assert verify_classical_branching(from_label(token, 3)).passed
        # the full partition of the ground set, then its classical partition
        assert len(sizes) == 2
        assert sizes[0] == 4 ** 3
        assert sum(sizes[1:]) == 4 ** 3


@pytest.mark.parametrize("token", ALL_LABELS)
def test_verify_all_partitions_each_ground_set_once(capsys, monkeypatch, token):
    # one full partition per type, shared by every suite, plus the
    # classical one on matrices
    sizes = _record_union_finds(monkeypatch)
    partition_ids.cache_clear()
    assert main(["verify", "--suite", "all", "--type", token, "--n", "3"]) == 0
    t = from_label(token, 3)
    assert sizes == [crystal.ground_size(t)] * (2 if t.doubled else 1)


@pytest.mark.parametrize("token, searches", [("A2odd", 8), ("C1", 10)])
def test_verify_all_component_searches(capsys, monkeypatch, token, searches):
    # only cor57 and the fork-plus-double quotients of thm58 search
    calls = []
    component = crystal.component

    def counting(t, x):
        calls.append(x)
        return component(t, x)

    monkeypatch.setattr(crystal, "component", counting)
    partition_ids.cache_clear()
    assert main(["verify", "--suite", "all", "--type", token, "--n", "4"]) == 0
    assert len(calls) == searches


@pytest.mark.parametrize("n", (2, 3))
def test_sigma_range_and_involution(n):
    t = from_label("A2odd", n)
    assert verify_sigma_range(t).passed
    assert verify_involution_commutes(t).passed


def test_involution_computes_one_mate_per_vertex(monkeypatch):
    calls = []
    varsigma = bicrystal.varsigma

    def counting(t, k, x):
        calls.append((k, x))
        return varsigma(t, k, x)

    monkeypatch.setattr(bicrystal, "varsigma", counting)
    t = from_label("A2odd", 4)
    assert verify_involution_commutes(t).passed
    assert calls == [(k, x) for k in (1, 2, 3)
                     for x in crystal.component(t, crystal.v_kl(t, k, 4 - k)).vertices]


@pytest.mark.parametrize("token", DOUBLED)
@pytest.mark.parametrize("n", (2, 3))
def test_sigma_characterization(token, n):
    assert verify_sigma_characterization(from_label(token, n)).passed


def test_sigma_level_sets_are_components():
    # every component of the all-double labeling is a level set
    t = from_label("C1", 3)
    from wedge_crystal import bicrystal

    for (k, l) in h_diamond(t):
        comp = set(crystal.component(t, crystal.v_kl(t, k, l)).vertices)
        level = {x for x in crystal.all_elements(t)
                 if bicrystal.sigma(3, x) == (3 - k - l, l)}
        assert comp == level


def test_component_isomorphism_between_level_sets():
    # same k, different l: isomorphic colored digraphs
    t = from_label("C1", 3)
    g1 = crystal.component(t, crystal.v_kl(t, 1, 0))
    g2 = crystal.component(t, crystal.v_kl(t, 1, 2))
    from wedge_crystal.cartan import fundamental_weight_cl

    target = fundamental_weight_cl(t, 1)
    r1 = [v for v in g1.vertices if crystal.weight(t, v) == target]
    r2 = [v for v in g2.vertices if crystal.weight(t, v) == target]
    assert len(r1) == len(r2) == 1
    assert isomorphic_components(g1, g2, r1[0], r2[0])
    g3 = crystal.component(t, crystal.v_kl(t, 2, 0))
    r3 = [v for v in g3.vertices
          if crystal.weight(t, v) == fundamental_weight_cl(t, 2)]
    assert not isomorphic_components(g1, g3, r1[0], r3[0])


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
        assert rep.total == 4 ** 3
    rep = decomposition_report(from_label("D1", 3))
    assert rep.total == 2 ** 3
    assert [row.size for row in rep.rows] == [4, 4]


def test_suite_type_guards():
    with pytest.raises(ValueError):
        verify_component_partition(from_label("B1", 3))
    with pytest.raises(ValueError):
        verify_spin_decomposition(from_label("C1", 3))
    with pytest.raises(ValueError):
        verify_sigma_range(from_label("C1", 3))
    with pytest.raises(ValueError):
        verify_delta_shift(from_label("A2even", 3))
