from fractions import Fraction

import pytest

from wedge_crystal.cartan import (ALL_LABELS, A2EVEN, A2EVEN_DAGGER, A2ODD, B1,
                                  C1, D1, D2, AffineType, cartan_data,
                                  from_label, fundamental_weight_cl)


def _rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [v / m[rank][c] for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_label_resolution():
    assert from_label("C_n^(1)", 3).label == C1
    assert from_label("C1", 3) == from_label("(2,2)", 3)
    assert from_label("A_{2n}^{(2)}dagger", 3).label == A2EVEN_DAGGER
    assert from_label("A_{2n}^(2)†", 2).label == A2EVEN_DAGGER
    assert from_label("11,2", 4).label == A2ODD
    with pytest.raises(ValueError):
        from_label("E8", 3)
    with pytest.raises(ValueError):
        from_label("C1", 1)
    with pytest.raises(ValueError):
        from_label("(1,11)", 3)  # no labeling forks only at the top node


def test_diamond_examples():
    assert from_label("C_n^(1)", 3).diamond == ("2", "2")
    assert from_label("A_{2n}^(2)", 3).diamond == ("1", "2")
    assert from_label("A_{2n-1}^(2)", 3).diamond == ("11", "2")
    assert from_label("A2evenDagger", 3).diamond == ("2", "1")


def test_diamond_round_trip():
    for label in ALL_LABELS:
        t = AffineType(label, 4)
        assert from_label(",".join(t.diamond), 4) == t
        assert from_label(t.cli_token, 4) == t


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("n", range(2, 7))
def test_affine_invariants(label, n):
    cd = cartan_data(AffineType(label, n))
    size = n + 1
    assert _rank(cd.a) == size - 1  # corank one
    for i in range(size):
        assert sum(cd.a[i][j] * cd.marks[j] for j in range(size)) == 0
    for j in range(size):
        assert sum(cd.comarks[i] * cd.a[i][j] for i in range(size)) == 0
    for i in range(size):
        for j in range(size):
            assert cd.norms[i] / 2 * cd.a[i][j] == cd.norms[j] / 2 * cd.a[j][i]
    # qs-exponents integral and positive
    assert all(e >= 1 for e in cd.qi_exp)


def test_deformation_normalization():
    # the middle-node parameter per labeling, in units of qs = q^(1/d)
    c = cartan_data(AffineType(C1, 3))
    assert c.d == 2 and c.qi_exp[1] == 1  # q_1 = q^(1/2)
    d2 = cartan_data(AffineType(D2, 3))
    assert Fraction(d2.qi_exp[1], d2.d) == 2  # q_1 = q^2
    b = cartan_data(AffineType(B1, 3))
    assert Fraction(b.qi_exp[1], b.d) == 1  # q_1 = q
    a = cartan_data(AffineType(A2EVEN, 3))
    assert Fraction(a.qi_exp[1], a.d) == 1
    assert Fraction(a.qi_exp[0], a.d) == Fraction(1, 2)
    assert Fraction(a.qi_exp[3], a.d) == 2


def test_marks_tables():
    assert cartan_data(AffineType(C1, 4)).marks == (1, 2, 2, 2, 1)
    assert cartan_data(AffineType(C1, 4)).comarks == (1, 1, 1, 1, 1)
    assert cartan_data(AffineType(B1, 4)).marks == (1, 1, 2, 2, 2)
    assert cartan_data(AffineType(B1, 4)).comarks == (1, 1, 2, 2, 1)
    assert cartan_data(AffineType(A2EVEN, 3)).marks == (2, 2, 2, 1)
    assert cartan_data(AffineType(A2EVEN_DAGGER, 3)).comarks == (2, 2, 2, 1)
    assert cartan_data(AffineType(A2ODD, 4)).marks == (1, 1, 2, 2, 1)
    assert cartan_data(AffineType(D1, 5)).marks == (1, 1, 2, 2, 1, 1)


def test_small_rank_collisions():
    # rank-2 fork wrapping and the rank-3 double-fork cycle
    a3 = cartan_data(AffineType(A2ODD, 2))
    assert a3.a == ((2, 0, -2), (0, 2, -2), (-1, -1, 2))
    b2 = cartan_data(AffineType(B1, 2))
    assert b2.a == ((2, 0, -1), (0, 2, -1), (-2, -2, 2))
    d3 = cartan_data(AffineType(D1, 3))
    assert d3.a == ((2, 0, -1, -1), (0, 2, -1, -1), (-1, -1, 2, 0),
                    (-1, -1, 0, 2))
    d2 = cartan_data(AffineType(D1, 2))
    assert d2.marks == (1, 0, 1)  # decomposes; still corank one


def test_fundamental_weights():
    t = AffineType(C1, 3)
    assert fundamental_weight_cl(t, 0) == (0, 0, 0, 0)
    assert fundamental_weight_cl(t, 2) == (-1, 0, 1, 0)
    t = AffineType(A2EVEN, 3)
    assert fundamental_weight_cl(t, 3) == (-2, 0, 0, 1)
    t = AffineType(A2EVEN_DAGGER, 3)
    assert fundamental_weight_cl(t, 1) == (-1, 1, 0, 0)
    assert fundamental_weight_cl(t, 3) == (-1, 0, 0, 2)  # doubled top weight
