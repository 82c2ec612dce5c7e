"""Property tests: the sparse row reduction of ``fock`` against the dense oracle.

Small random matrices with Z[qs^±1] entries, carried into Q(qs) by
``laurent.rational``, are reduced both ways: kernels by ``fock._kernel``
against ``fock_oracle._nullspace``, square solves by ``fock._solve`` against
``fock_oracle._solve_multi``.  The oracle works on the same entries carried
into its ``Fraction`` scalars, so the comparison also checks the scalar
arithmetic of the row reduction.  Rank-deficient cases are built on purpose by
appending combinations of the drawn rows.
"""

import pytest
from hypothesis import given, settings, strategies as st

import fock_oracle as oracle
from wedge_crystal import fock
from wedge_crystal.cartan import from_label
from wedge_crystal.laurent import rational

SAMPLED = settings(max_examples=150, deadline=None, derandomize=True)

# mostly zero entries, the rest small integer Laurent polynomials
entries = st.one_of(
    st.just({}), st.just({}),
    st.dictionaries(st.integers(-2, 2), st.integers(-3, 3).filter(bool),
                    min_size=1, max_size=2),
).map(rational)


def _combination(draw, rows):
    """A Q(qs)-combination of the given dense rows."""
    out = [rational({})] * len(rows[0])
    for row in rows:
        c = draw(entries)
        out = [a + c * b for a, b in zip(out, row)]
    return out


@st.composite
def matrices(draw):
    """(dense rows, ordered integer column ids), possibly rank-deficient."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        rows.append(_combination(draw, rows))
    cols = sorted(draw(st.sets(st.integers(0, 40), min_size=ncols, max_size=ncols)))
    return rows, cols


@st.composite
def systems(draw):
    """(A, B) with A square, singular whenever a row of A is a combination."""
    size, width = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    a = [[draw(entries) for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        a[-1] = _combination(draw, a[:-1])
    b = [[draw(entries) for _ in range(width)] for _ in range(size)]
    return a, b


def _sparse(row, cols):
    return {c: v for c, v in zip(cols, row) if not v.is_zero}


def _scalars(x):
    """Dense rows or a sparse vector, carried into the oracle's scalars."""
    if isinstance(x, dict):
        return {c: oracle.scalar(v) for c, v in x.items()}
    return [[oracle.scalar(v) for v in row] for row in x]


@SAMPLED
@given(matrices())
def test_kernel_matches_dense_oracle(case):
    rows, cols = case
    sparse = [_sparse(row, cols) for row in rows]
    expected = [_sparse(vec, cols) for vec in oracle._nullspace(_scalars(rows), len(cols))]
    kernel = fock._kernel(sparse, cols)
    assert [_scalars(vec) for vec in kernel] == expected
    # keys in column order, as the oracle's dense vectors have them
    assert [list(vec) for vec in kernel] == [list(vec) for vec in expected]
    # reduced row echelon form does not depend on the order of the rows
    assert fock._rref(sparse) == fock._rref(reversed(sparse))


@SAMPLED
@given(systems())
def test_solve_matches_dense_oracle(case):
    a, b = case
    size, width = len(a), len(b[0])
    rows = [{**_sparse(ar, range(size)), **_sparse(br, range(size, size + width))}
            for ar, br in zip(a, b)]
    try:
        expected = oracle._solve_multi(_scalars(a), _scalars(b))
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError, match=str(exc)):
            fock._solve(rows, range(size))
        return
    red = fock._solve(rows, range(size))
    assert [[oracle.scalar(red[c].get(size + j, rational({}))) for j in range(width)]
            for c in range(size)] == expected


def test_singular_change_of_basis_raises():
    qs = rational({1: 1})
    with pytest.raises(ArithmeticError, match="singular change of basis"):
        fock._solve([{0: qs, 1: qs, 2: qs}, {0: qs * qs, 1: qs * qs}], [0, 1])


def test_dependent_strings_are_a_singular_change_of_basis(monkeypatch):
    # repeating one highest vector of a two-dimensional kernel keeps every
    # count right, so only the change of basis can notice
    kernel = fock._kernel

    def repeated(rows, cols):
        basis = kernel(rows, cols)
        return basis[:-1] + basis[:1] if len(basis) > 1 else basis

    rep = fock.representation(from_label("A2odd", 3))
    monkeypatch.setattr(fock, "_kernel", repeated)
    with pytest.raises(ArithmeticError, match="singular change of basis"):
        fock.normalized_highest_vector(rep, 1, 2)
    with pytest.raises(ArithmeticError, match="singular change of basis"):
        fock.kashiwara_operators(rep, 1)
