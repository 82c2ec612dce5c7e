"""Property tests: the sparse row reduction of ``fock`` against the dense oracle.

Small random matrices with Z[qs^±1] entries, carried into Q(qs) by
``laurent.rational``, are reduced both ways: kernels by ``fock._kernel``
against ``fock_oracle._nullspace``, square solves by ``fock._solve`` against
``fock_oracle._solve_multi``.  The oracle works on the same entries carried
into its ``Fraction`` scalars, so the comparison also checks the scalar
arithmetic of the row reduction.  Rank-deficient cases are built on purpose by
appending combinations of the drawn rows.

The modified root operators, which ``fock.kashiwara_operators`` extracts
from the factors on one block per class of blocks, are compared entry for
entry with the extraction per whole i-weight space kept in ``fock_oracle``,
run on the expanded module and restricted to each block's members, on every
labeling; and every block of every node is checked to have its class
representative's weights and columns.  Small hand-built modules reach the
extraction of one block (``fock._block_operators``) directly, block by
block, with their own weights and columns; they also reach each of its
failures.
"""

import pytest
from hypothesis import given, settings, strategies as st

import fock_oracle as oracle
from wedge_crystal import crystal, fock
from wedge_crystal.cartan import ALL_LABELS, cartan_data, from_label
from wedge_crystal.laurent import RationalScalar, qfactorial, rational

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


def _one_node(weights, e, f):
    """A module of node i = 0 alone on len(weights) basis vectors, as the
    oracle's global module: their i-weights, and e_0 and f_0 as
    {(row, col): Z[qs^±1] entry}."""
    t = from_label("A2odd", 2)
    dim = len(weights)
    return oracle.Representation(type=t, cd=cartan_data(t), copies=1, dim=dim,
                                 e={0: oracle.GlobalOperator(dim, e)},
                                 f={0: oracle.GlobalOperator(dim, f)},
                                 t={}, tinv={}, weights=[(w,) for w in weights])


def _by_blocks(rep):
    """``fock._block_operators`` of node 0 on every block of a hand-built
    module, renumbered to its ids: its weights as one table over whole ids,
    its columns read from its entries, its blocks the cosets of the bits its
    entries change."""
    cols, mask = {}, 0
    for kind in ("e", "f"):
        for (r, c), v in getattr(rep, kind)[0].entries.items():
            cols.setdefault((kind, c), {})[r] = v
            mask |= r ^ c
    weights = (~0, {x: w for x, (w,) in enumerate(rep.weights)})
    blocks = {}
    for x in range(rep.dim):
        blocks.setdefault(x & ~mask, []).append(x)
    et, ft = {}, {}
    for members in blocks.values():
        ops = fock._block_operators(members, weights, lambda kind, x: cols.get((kind, x), {}),
                                    0, rep.cd.qi_exp[0])
        for op, block_op in zip((et, ft), ops):
            for (r, c), v in block_op.items():
                op[members[r], members[c]] = v
    return et, ft


# one block holding two 2-strings: f_0 maps b0 to b2 and b1 to b2 + b3,
# e_0 inverts it, so e_0 f_0 = 1 at weight 1 and f_0 e_0 = 1 at weight -1
TWO_STRINGS = ([1, 1, -1, -1],
               {(0, 2): {0: 1}, (0, 3): {0: -1}, (1, 3): {0: 1}},
               {(2, 0): {0: 1}, (2, 1): {0: 1}, (3, 1): {0: 1}})


def _as_rational(op):
    return {rc: rational(v) for rc, v in op.entries.items()}


def _assert_same(rep):
    """``_by_blocks(rep)`` against the oracle's extraction on ``rep``;
    returns the raising and lowering operators."""
    et, ft = _by_blocks(rep)
    oracle_et, oracle_ft = oracle.kashiwara_operators_by_weight_space(rep, 0)
    assert et == oracle_et
    assert ft == oracle_ft
    return et, ft


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("n", range(2, 6))
def test_blocks_match_whole_weight_spaces(label, n):
    # each class block's operators are the oracle's on its members, in their
    # order
    fac = fock.factors(from_label(label, n))
    rep = oracle.expand_module(fac)
    for i in range(n + 1):
        whole = oracle.kashiwara_operators_by_weight_space(rep, i)
        for members, *ops in fock.kashiwara_operators(fac, i):
            local = {x: k for k, x in enumerate(members)}
            for ours, theirs in zip(ops, whole):
                assert ours == {(local[r], local[c]): v for (r, c), v in theirs.items()
                                if c in local}, (i, members)


def _block(fac, i, members):
    """The i-weights and the columns of e_i and f_i on ``members``,
    renumbered in their order."""
    mask, table = crystal.rules(fac.type).weights[i]
    local = {x: k for k, x in enumerate(members)}
    return ([table[x & mask] for x in members],
            [{local[r]: v for r, v in fock._column(op[i], x).items()}
             for op in (fac.e, fac.f) for x in members])


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("n", range(2, 6))
def test_every_block_is_its_class_representative(label, n):
    # the class of a coset, recomputed here from the factors: its bits on
    # U & ~mask, with U the supports of e_i and f_i and the rule's weight
    # mask, and its parities against the terms' characters outside U
    fac = fock.factors(from_label(label, n))
    for i in range(n + 1):
        mask, bases = fock._classes(fac, i)
        union, chars = crystal.rules(fac.type).weights[i][0], set()
        for op in (fac.e[i], fac.f[i]):
            for m, p in op.terms:
                union |= m
                chars.add(p)
        chars = sorted(chars)

        def key(x):
            return x & union & ~mask, tuple((x & p & ~union).bit_count() & 1 for p in chars)

        inside = [s for s, _ in fock._spectators(mask, 0)]
        shapes = {key(b): _block(fac, i, [b | s for s in inside]) for b in bases}
        assert len(shapes) == len(bases)  # one base per class
        for y in range(1 << fac.bits):
            if not y & mask:
                assert _block(fac, i, [y | s for s in inside]) == shapes[key(y)], (i, y)


def test_blocks_of_one_pattern_with_other_entries():
    # two interleaved blocks, {0, 2, 4, 6} as TWO_STRINGS and {1, 3, 5, 7}
    # with f_0 b1 = qs b5, so only the second has a qs in its operators.
    # All strings have length 2, so the modified operators are e_0 and f_0
    weights = [1, 1, 1, 1, -1, -1, -1, -1]
    e = {(0, 4): {0: 1}, (0, 6): {0: -1}, (2, 6): {0: 1},
         (1, 5): {-1: 1}, (1, 7): {-1: -1}, (3, 7): {0: 1}}
    f = {(4, 0): {0: 1}, (4, 2): {0: 1}, (6, 2): {0: 1},
         (5, 1): {1: 1}, (5, 3): {0: 1}, (7, 3): {0: 1}}
    rep = _one_node(weights, e, f)
    et, ft = _assert_same(rep)
    assert et == _as_rational(rep.e[0])
    assert ft == _as_rational(rep.f[0])


def test_single_strings():
    # f_0 b0 = b1 and f_0 b1 = [2] b2, so f^(2) b0 = b2: both modified
    # operators move along the string with coefficient 1
    unit = cartan_data(from_label("A2odd", 2)).qi_exp[0]
    two = qfactorial(2, unit)
    rep = _one_node([2, 0, -2], {(0, 1): two, (1, 2): {0: 1}},
                    {(1, 0): {0: 1}, (2, 1): two})
    et, ft = _assert_same(rep)
    one = RationalScalar.one()
    assert et == {(0, 1): one, (1, 2): one}
    assert ft == {(1, 0): one, (2, 1): one}
    # a 2-string with f_0 b0 = qs b1: e~ divides by qs where f~ multiplies
    et, ft = _assert_same(_one_node([1, -1], {(0, 1): {-1: 1}}, {(1, 0): {1: 1}}))
    assert et == {(0, 1): rational({-1: 1})}
    assert ft == {(1, 0): rational({1: 1})}


def test_one_block_of_several_strings():
    # e_0 and f_0 change both bits, so one coset holds every id: the 2-string
    # b0, b3 and the singletons b1, b2 at weight 0
    rep = _one_node([1, 0, 0, -1], {(0, 3): {1: 1}}, {(3, 0): {-1: 1}})
    et, ft = _assert_same(rep)
    assert et == {(0, 3): rational({1: 1})}
    assert ft == {(3, 0): rational({-1: 1})}


def test_weight_zero_singleton_contributes_nothing():
    et, ft = _assert_same(_one_node([0], {}, {}))
    assert not et and not ft


@pytest.mark.parametrize("weights, e, f, message", [
    ([0, 0], {(0, 1): {0: 1}}, {}, "raising operator 0 is not weight-homogeneous"),
    # f_0 b1 = b2 at weight -3, so the string from b0 runs past weight -1
    ([1, -1, -3], {(0, 1): {0: 1}}, {(1, 0): {0: 1}, (2, 1): {0: 1}},
     "string through weight 1 does not close"),
    # a singleton at negative weight starts no string
    ([-2], {}, {}, "string count 0 does not fill dimension 1"),
    # a singleton at weight 2 starts a string through weights 0 and -2
    ([2], {}, {}, "weight space dimension mismatch"),
    # f_0 b1 = b3 keeps the weight 0; e_0 alone is homogeneous
    ([2, 0, -2, 0], {(0, 1): {1: 1, -1: 1}, (1, 2): {0: 1}},
     {(1, 0): {0: 1}, (2, 1): {1: 1, -1: 1}, (3, 1): {0: 1}},
     "lowering operator 0 is not weight-homogeneous"),
])
def test_malformed_blocks_raise(weights, e, f, message):
    with pytest.raises(ArithmeticError, match=message):
        _by_blocks(_one_node(weights, e, f))


def test_dependent_strings_are_a_singular_change_of_basis(monkeypatch):
    # repeating one highest vector of a two-dimensional kernel keeps every
    # count right, so only the change of basis can notice
    kernel = fock._kernel

    def repeated(rows, cols):
        basis = kernel(rows, cols)
        return basis[:-1] + basis[:1] if len(basis) > 1 else basis

    fac = fock.factors(from_label("A2odd", 3))
    monkeypatch.setattr(fock, "_kernel", repeated)
    with pytest.raises(ArithmeticError, match="singular change of basis"):
        fock.normalized_highest_vector(fac, 1, 2)
    # every block of a labeling at n = 3 has kernels of dimension at most
    # one; this block has a two-dimensional kernel at weight 1
    with pytest.raises(ArithmeticError, match="singular change of basis"):
        _by_blocks(_one_node(*TWO_STRINGS))
