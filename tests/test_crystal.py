import pytest

import crystal_oracle as oracle
from wedge_crystal.cartan import cartan_data, from_label
from wedge_crystal import crystal
from wedge_crystal.crystal import (all_elements, component, delta_word,
                                   e_tilde, f_tilde, text, v_kl, v_spin,
                                   weight, weyl_action)

DOUBLED = ("C1", "A2even", "A2evenDagger", "A2odd")
SINGLE_COL = ("B1", "D1", "D2")


def M(rows):
    return oracle.BinaryMatrix.from_text(rows).id


def test_encoding_round_trip():
    m = oracle.BinaryMatrix.from_text("10/11/01")
    assert m.text == "10/11/01"
    assert oracle.BinaryMatrix.from_id(3, m.id) == m
    assert text(from_label("C1", 3), m.id) == "10/11/01"
    v = oracle.BinaryVector.from_text("1/0/1")
    assert v.text == "1/0/1"
    assert oracle.BinaryVector.from_id(3, v.id) == v
    assert text(from_label("B1", 3), v.id) == "1/0/1"
    # low bit of the id is the top row of column one
    assert M("10/00/00") == 1
    assert M("01/00/00") == 8
    assert text(from_label("C1", 3), 1) == "10/00/00"
    assert text(from_label("C1", 3), 8) == "01/00/00"


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3))
def test_text_matches_oracle(token, n):
    t = from_label(token, n)
    for obj in oracle.all_elements(t):
        assert text(t, obj.id) == obj.text


def _weight_mismatches(t):
    """The ids whose weight, read by ``weight`` or by the list kernel
    ``rule_weights``, differs from the oracle's."""
    rs = crystal.rules(t)
    ids = all_elements(t)
    return [x for x, listed in zip(ids, crystal.rule_weights(rs, ids))
            if not weight(t, x) == listed == oracle.rule_weight_by_rules(rs, x)]


def _text_mismatches(t):
    return [x for x in all_elements(t) if text(t, x) != oracle.text_by_format(t, x)]


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
def test_weight_and_text_tables_match_the_oracles(token):
    for n in range(2, 8):
        t = from_label(token, n)
        assert _weight_mismatches(t) == []
        assert _text_mismatches(t) == []


@pytest.mark.parametrize("token", SINGLE_COL)
def test_weight_and_text_tables_match_the_oracles_at_rank_twelve(token):
    t = from_label(token, 12)
    assert _weight_mismatches(t) == []
    assert _text_mismatches(t) == []


def test_a_corrupted_weight_table_entry_is_caught(monkeypatch):
    t = from_label("A2odd", 3)
    mask, table = crystal.rules(t).weights[1]
    monkeypatch.setitem(table, mask, table[mask] + 1)
    assert _weight_mismatches(t) != []


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
def test_with_weight_equals_the_filter_by_weight(token):
    for n in range(2, 5):
        t = from_label(token, n)
        rs = crystal.rules(t)
        ids = all_elements(t)
        by_weight = {}
        for x in ids:
            by_weight.setdefault(weight(t, x), []).append(x)
        for w, expected in by_weight.items():
            assert crystal.with_weight(rs, ids, w) == expected, w
        # every pairing lies in -2..2
        absent = (n + 1,) * (n + 1)
        assert absent not in by_weight
        assert crystal.with_weight(rs, ids, absent) == []


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
def test_weight_tables_equal_the_closed_form(token):
    # phi - epsilon walked in the step tables, against [f applies] -
    # [e applies] per column on every submask of each rule's mask
    for n in range(2, 13):
        rs = crystal.rules(from_label(token, n))
        for rule, (mask, table) in zip(rs, rs.weights):
            assert len(table) == 1 << bin(mask).count("1")
            assert table == {sub: oracle.rule_weight_by_rules((rule,), sub)[0]
                             for sub in table if sub & mask == sub}


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
def test_component_matches_the_step_by_step_search(token):
    from wedge_crystal import theorems

    for n in range(2, 7):
        t = from_label(token, n)
        for ids in theorems.partition_ids(t).members:
            g = component(t, ids[-1])
            ref = oracle.component_by_steps(t, ids[-1])
            assert (g.vertices, g.edges) == (ref.vertices, ref.edges)


def test_operator_examples():
    t = from_label("C1", 2)
    m = M("11/00")
    assert text(t, e_tilde(t, 2, m)) == "00/00"  # full top row collapses
    t = from_label("A2evenDagger", 2)
    m = M("11/00")
    assert text(t, e_tilde(t, 2, m)) == "10/00"  # short top end peels one
    t = from_label("A2even", 2)
    m = M("00/01")
    assert text(t, e_tilde(t, 0, m)) == "00/11"
    # fork bottom end fills both bottom rows of one column
    t = from_label("A2odd", 3)
    m = M("00/00/00")
    assert text(t, e_tilde(t, 0, m)) == "00/01/01"
    assert text(t, e_tilde(t, 0, e_tilde(t, 0, m))) == "00/11/11"
    # doubled top end of the fork type acts on the whole top row
    m = M("11/01/00")
    assert text(t, e_tilde(t, 3, m)) == "00/01/00"


def test_vector_rules():
    t = from_label("B1", 2)
    v = oracle.BinaryVector((1, 0)).id  # (m_2bar, m_1bar) = (0, 1)
    assert e_tilde(t, 1, v) == oracle.BinaryVector((0, 1)).id
    assert f_tilde(t, 1, e_tilde(t, 1, v)) == v
    t = from_label("D2", 3)
    v = oracle.BinaryVector((0, 0, 1)).id  # top row occupied
    assert e_tilde(t, 3, v) == oracle.BinaryVector((0, 0, 0)).id
    assert e_tilde(t, 0, v) == oracle.BinaryVector((1, 0, 1)).id
    t = from_label("D1", 3)
    v = oracle.BinaryVector((0, 0, 0)).id
    assert f_tilde(t, 3, v) == oracle.BinaryVector((0, 1, 1)).id
    assert e_tilde(t, 3, f_tilde(t, 3, v)) == v


def test_variant_mismatch():
    t = from_label("C1", 2)
    with pytest.raises(ValueError):
        e_tilde(t, 1, 16)  # past the 4^2 matrices
    with pytest.raises(ValueError):
        e_tilde(from_label("B1", 2), 1, 4)  # past the 2^2 vectors
    with pytest.raises(ValueError):
        e_tilde(t, 5, 0)
    with pytest.raises(ValueError):
        f_tilde(t, 1, -1)
    with pytest.raises(ValueError):
        weight(t, oracle.BinaryMatrix.from_text("00/00"))
    # the oracle keeps rejecting the wrong element kind
    with pytest.raises(ValueError):
        oracle.e_tilde(t, 1, oracle.BinaryVector((0, 0)))
    with pytest.raises(ValueError):
        oracle.e_tilde(from_label("B1", 2), 1, oracle.BinaryMatrix.from_text("00/00"))


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_raising_lowering_pairing(token, n):
    t = from_label(token, n)
    elements = all_elements(t)
    for x in elements:
        for i in range(n + 1):
            y = f_tilde(t, i, x)
            if y is not None:
                assert e_tilde(t, i, y) == x
            z = e_tilde(t, i, x)
            if z is not None:
                assert f_tilde(t, i, z) == x
    assert len(set(elements)) == len(elements) == crystal.ground_size(t)


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_kernel_matches_oracle_exhaustively(token, n):
    t = from_label(token, n)
    for obj in oracle.all_elements(t):
        x = obj.id
        for i in range(n + 1):
            for op, ref in ((e_tilde, oracle.e_tilde), (f_tilde, oracle.f_tilde)):
                y = ref(t, i, obj)
                assert op(t, i, x) == (None if y is None else y.id)
            assert oracle.string_lengths_of_id(t, i, x) == oracle.string_lengths(t, i, obj)
        assert weight(t, x) == oracle.weight(t, obj)


@pytest.mark.parametrize("token", ("A2odd", "B1"))
def test_raising_lowering_pairing_large(token):
    n = 6
    t = from_label(token, n)
    for x in all_elements(t):
        for i in range(n + 1):
            y = f_tilde(t, i, x)
            if y is not None:
                assert e_tilde(t, i, y) == x


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3))
def test_weight_shift_matches_cartan_column(token, n):
    t = from_label(token, n)
    cd = cartan_data(t)
    for x in all_elements(t):
        wx = weight(t, x)
        for i in range(n + 1):
            y = f_tilde(t, i, x)
            if y is None:
                continue
            wy = weight(t, y)
            assert all(wx[j] - wy[j] == cd.a[j][i] for j in range(n + 1))


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_level_zero(token, n):
    t = from_label(token, n)
    if token == "D1" and n == 2:
        pytest.skip("rank-2 double fork decomposes; no affine weight pairing")
    cd = cartan_data(t)
    for x in all_elements(t):
        w = weight(t, x)
        assert sum(cd.comarks[i] * w[i] for i in range(n + 1)) == 0


def test_v_kl_examples():
    t = from_label("C1", 3)
    assert text(t, v_kl(t, 1, 1)) == "10/01/00"
    assert text(t, v_kl(t, 3, 0)) == "00/00/00"
    assert text(t, v_kl(t, 0, 3)) == "10/10/10"
    with pytest.raises(ValueError):
        v_kl(t, 2, 2)
    with pytest.raises(ValueError):
        v_kl(t, 4, 0)
    for n in (2, 3, 4, 5):
        t = from_label("C1", n)
        for k in range(n + 1):
            for l in range(n - k + 1):
                assert v_kl(t, k, l) == oracle.v_kl(t, k, l).id


def test_v_kl_weights():
    from wedge_crystal.cartan import fundamental_weight_cl
    from wedge_crystal import theorems

    for token in DOUBLED:
        for n in (2, 3, 4):
            t = from_label(token, n)
            for (k, l) in theorems.h_diamond(t):
                assert weight(t, v_kl(t, k, l)) == fundamental_weight_cl(t, k)
                assert all(e_tilde(t, i, v_kl(t, k, l)) is None
                           for i in range(1, n + 1))


def test_spin_representatives():
    t = from_label("D1", 4)
    assert v_spin(t, 4) == oracle.BinaryVector((0, 0, 0, 0)).id
    assert v_spin(t, 3) == oracle.BinaryVector((0, 0, 0, 1)).id
    assert v_spin(t, 4) == oracle.v_spin(t, 4).id
    assert v_spin(t, 3) == oracle.v_spin(t, 3).id
    with pytest.raises(ValueError):
        v_spin(t, 2)


def test_component_examples():
    t = from_label("A2odd", 3)
    assert len(component(t, v_kl(t, 0, 3)).vertices) == 1
    assert len(component(t, v_kl(t, 0, 2)).vertices) == 1
    x = v_kl(t, 1, 2)
    g = component(t, x)
    assert x in g.vertices


def test_component_against_union_find():
    from wedge_crystal import theorems

    t = from_label("C1", 3)
    g = component(t, v_kl(t, 2, 1))
    label = theorems.partition_ids(t).label
    root = label[v_kl(t, 2, 1)]
    members = {x for x in all_elements(t) if label[x] == root}
    assert set(g.vertices) == members
    # edge pairing invariant inside the graph
    for src, dst, color in g.edges:
        assert f_tilde(t, color, src) == dst
    # the search from every representative finds exactly its partition class
    for token in DOUBLED + SINGLE_COL:
        for n in range(2, 6):
            t = from_label(token, n)
            p = theorems.partition_ids(t)
            if t.doubled:
                reps = [v_kl(t, k, l) for k, l in theorems.h_diamond(t)]
            else:
                reps = [v_spin(t, n), v_spin(t, n - 1)]
            reps += [ids[0] for ids in p.members]
            for x in reps:
                assert component(t, x).vertices == tuple(p.members[p.label[x]])


def test_component_determinism():
    t = from_label("C1", 2)
    g1 = component(t, v_kl(t, 1, 0))
    g2 = component(t, f_tilde(t, 1, v_kl(t, 1, 0)))
    assert list(g1.vertices) == list(g2.vertices)
    assert g1.edges == g2.edges


@pytest.mark.parametrize("token", DOUBLED)
def test_weyl_reflection_involutive(token):
    t = from_label(token, 2)
    for x in all_elements(t):
        for i in range(t.n + 1):
            y = crystal.weyl_reflection(t, i, x)
            assert crystal.weyl_reflection(t, i, y) == x
            if weight(t, x)[i] == 0:
                assert y == x


@pytest.mark.parametrize("token", DOUBLED + SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_weyl_reflection_matches_the_stepping_oracle(token, n):
    # the involution test above also passes the identity map; this one pins
    # the image and its weight: weight(S_i x) = weight(x) - weight(x)_i
    # times column i of the Cartan matrix
    t = from_label(token, n)
    a = cartan_data(t).a
    for x in all_elements(t):
        w = weight(t, x)
        for i in range(n + 1):
            y = crystal.weyl_reflection(t, i, x)
            assert y == oracle.weyl_reflection_by_steps(t, i, x)
            assert weight(t, y) == tuple(w[j] - w[i] * a[j][i] for j in range(n + 1))


def test_delta_word_examples():
    assert delta_word(from_label("A2odd", 2), 1) == (1, 2, 0)
    assert delta_word(from_label("A2odd", 3), 1) == (1, 2, 3, 2, 0)
    assert delta_word(from_label("A2odd", 3), 2) == (2, 1, 3, 2, 0, 2)
    with pytest.raises(ValueError):
        delta_word(from_label("C1", 3), 1)
    with pytest.raises(ValueError):
        delta_word(from_label("A2odd", 3), 3)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_delta_word_swaps_representatives(n):
    t = from_label("A2odd", n)
    for k in range(1, n):
        word = delta_word(t, k)
        assert weyl_action(t, word, v_kl(t, k, n - k)) == v_kl(t, k, n - k - 1)
        assert weyl_action(t, word, v_kl(t, k, n - k - 1)) == v_kl(t, k, n - k)


@pytest.mark.parametrize("token", SINGLE_COL)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_spin_component_split(token, n):
    t = from_label(token, n)
    top = component(t, v_spin(t, n))
    if token == "D1":
        second = component(t, v_spin(t, n - 1))
        ids = set(top.vertices) | set(second.vertices)
        assert len(top.vertices) == len(second.vertices) == 2 ** (n - 1)
        assert len(ids) == 2 ** n
    else:
        assert len(top.vertices) == 2 ** n
