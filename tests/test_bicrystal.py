import pytest

import crystal_oracle as oracle
from wedge_crystal.cartan import from_label
from wedge_crystal import bicrystal, crystal, theorems
from wedge_crystal.bicrystal import (E_tilde, F_tilde, quotient_graph, sigma,
                                     sigma_by_strings, sigma_closed,
                                     varsigma)
from wedge_crystal.crystal import all_elements, text, v_kl


def M(rows):
    return oracle.BinaryMatrix.from_text(rows).id


def test_worked_example():
    m = M("10/11/01")
    assert sigma(3, m) == (1, 1)
    assert text(from_label("C1", 3), E_tilde(3, m)) == "10/11/10"
    assert F_tilde(3, E_tilde(3, m)) == m


def test_inert_matrices():
    zero = M("00/00/00")
    assert E_tilde(3, zero) is None and F_tilde(3, zero) is None
    full = M("11/11/11")
    assert sigma(3, full) == (0, 0)


def test_inverse_pairing():
    for x in all_elements(from_label("C1", 3)):
        up = E_tilde(3, x)
        if up is not None:
            assert F_tilde(3, up) == x
        down = F_tilde(3, x)
        if down is not None:
            assert E_tilde(3, down) == x


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_sigma_three_ways(n):
    for x in all_elements(from_label("C1", n)):
        assert sigma(n, x) == sigma_closed(n, x) == sigma_by_strings(n, x)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_row_operators_match_oracle(n):
    for obj in oracle.all_elements(from_label("C1", n)):
        x = obj.id
        assert sigma(n, x) == oracle.sigma(obj)
        assert sigma_closed(n, x) == oracle.sigma_closed(obj)
        for op, ref in ((E_tilde, oracle.E_tilde), (F_tilde, oracle.F_tilde)):
            y = ref(obj)
            assert op(n, x) == (None if y is None else y.id)


def test_sigma_of_representatives():
    t = from_label("C1", 4)
    for (k, l) in theorems.h_diamond(t):
        assert sigma(4, v_kl(t, k, l)) == (t.n - k - l, l)


@pytest.mark.parametrize("token", ("C1", "A2even", "A2evenDagger", "A2odd"))
def test_row_operators_commute_with_middle_indices(token):
    t = from_label(token, 3)
    for x in all_elements(t):
        for i in range(1, t.n):
            for op in (crystal.e_tilde, crystal.f_tilde):
                moved = op(t, i, x)
                if moved is not None:
                    assert sigma(3, moved) == sigma(3, x)
                for row_op in (E_tilde, F_tilde):
                    a = row_op(3, x)
                    lhs = None if a is None else op(t, i, a)
                    b = None if moved is None else row_op(3, moved)
                    assert lhs == b


def test_varsigma_on_the_worked_example():
    t = from_label("A2odd", 3)
    assert text(t, varsigma(t, 1, M("10/11/01"))) == "10/11/10"


@pytest.mark.parametrize("n", (2, 3, 4))
def test_varsigma_involution(n):
    t = from_label("A2odd", n)
    for k in range(1, n):
        g = crystal.component(t, v_kl(t, k, n - k))
        for x in g.vertices:
            mate = varsigma(t, k, x)
            assert mate != x
            assert varsigma(t, k, mate) == x
            assert mate == oracle.varsigma(t, k, oracle.BinaryMatrix.from_id(n, x)).id
        assert varsigma(t, k, v_kl(t, k, n - k)) == v_kl(t, k, n - k - 1)


def test_varsigma_domain_errors():
    t = from_label("A2odd", 3)
    with pytest.raises(ValueError):
        varsigma(t, 3, M("00/00/00"))
    with pytest.raises(ValueError):
        varsigma(from_label("C1", 3), 1, M("00/00/00"))
    # phi value outside the two lanes for this k
    with pytest.raises(ValueError):
        varsigma(t, 2, M("10/10/10"))


@pytest.mark.parametrize("read, token", [
    (text, "C1"),
    (text, "B1"),
    (lambda t, x: sigma(t.n, x), "C1"),
    (lambda t, x: E_tilde(t.n, x), "C1"),
    (lambda t, x: F_tilde(t.n, x), "C1"),
    (lambda t, x: varsigma(t, 1, x), "A2odd"),
], ids=("text", "text-vector", "sigma", "E_tilde", "F_tilde", "varsigma"))
def test_single_id_readers_reject_a_non_id(read, token):
    # the signature reading would loop forever on a negative id, and an id
    # past the ground set would read as some other id
    t = from_label(token, 3)
    for x in (-1, crystal.ground_size(t)):
        with pytest.raises(ValueError):
            read(t, x)


@pytest.mark.parametrize("n", range(2, 8))
def test_varsigma_maps_the_even_lane_onto_the_odd_lane(n):
    # the lane rule of thm58: for every k, varsigma takes the ids with
    # sigma (even, n - k) onto those with sigma (odd, n - k - 1), each one
    # to sigma (epsilon + 1, phi - 1)
    t = from_label("A2odd", n)
    ids = all_elements(t)
    sig = bicrystal.sigmas(n, ids)
    for k in range(1, n):
        even = [x for x, (e, p) in zip(ids, sig) if p == n - k and e % 2 == 0]
        odd = [x for x, (e, p) in zip(ids, sig) if p == n - k - 1 and e % 2 == 1]
        mates = bicrystal.varsigmas(t, k, even)
        assert sorted(mates) == odd
        for x, m in zip(even, mates):
            e, p = sig[x]
            assert sig[m] == (e + 1, p - 1)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_quotient_graph(n):
    t = from_label("A2odd", n)
    for k in range(1, n):
        g = crystal.component(t, v_kl(t, k, n - k))
        q = quotient_graph(g, k)
        assert 2 * len(q.orbits) == len(g.vertices)
        for plus, minus in q.orbits:
            assert sigma(n, plus)[1] == n - k
            assert sigma(n, minus)[1] == n - k - 1
        # quotient edge endpoints reference orbit ids
        ids = set(q.ids)
        for s, d, _ in q.edges:
            assert s in ids and d in ids


def test_quotient_matches_figure_count():
    t = from_label("A2odd", 3)
    g = crystal.component(t, v_kl(t, 2, 1))
    q = quotient_graph(g, 2)
    assert len(g.vertices) == 30
    assert len(q.orbits) == 15


def test_quotient_rejects_ill_defined_edges():
    t = from_label("A2odd", 3)
    g = crystal.component(t, v_kl(t, 2, 1))
    s, d, c = g.edges[0]
    other = next(x for x in g.vertices if x not in (d, varsigma(t, 2, d)))
    g.edges = g.edges + ((s, other, c),)
    with pytest.raises(RuntimeError, match="not well defined"):
        quotient_graph(g, 2)
