"""Exact symbolic layer: deformed fermion operators and module checks.

Basis states of the single wedge space are bit masks over the barred
alphabet (bit n-j holds row j-bar, matching the crystal ids); the doubled
space indexes pairs of masks, low bits first.  Creation and annihilation
carry the usual fermionic phase over the lower bits; the diagonal gauge
operators carry the deformation parameter of the middle nodes.

On top of the raw operators the module builds the full generator family
for any of the seven labelings, checks the defining relations and the
bilinear-form compatibility exactly, extracts the modified root operators
block by block, and compares their specialization at qs = 0 with the
combinatorial crystal.

Every generator entry is a signed monomial in qs, so generator matrices
hold integer Laurent polynomials (``laurent`` dicts, Z[qs^±1]) and the
relation checks, stated with their denominators cleared, never leave that
ring.  Only the extraction of modified root operators and highest vectors
works in Q(qs): it converts a generator's entries with ``laurent.rational``
where they enter a linear system or multiply a rational vector.  Every
linear system there is solved by one sparse row reduction over Q(qs)
(``_rref``), fed with the nonzero entries only.

The modified root operators of node i come from the blocks of the module:
the cosets of the bits that e_i and f_i change (the union of r ^ c over
their entries).  Each coset is closed under e_i and f_i by construction,
and t_i is diagonal, so each block is a U_q(sl_2)_i-submodule, and
Kashiwara's operators act on the blocks separately.  Each block gets the
kernel, string and change-of-basis steps on its own few members, once per
block shape: blocks whose weights and entries agree after renumbering share
one result.  The highest vectors need joint kernels over i = 1..n, which no
block of one i contains, so they reduce whole weight spaces: one scan of the
basis per weight yields both that kernel and the crystal's
classically-highest ids of the weight, kept together (``WeightSpace``).

The relation checks build only the products they need.  When t_i and
t_i^-1 are diagonal with one-term entries, t_i x t_i^-1 = qs^k x is decided
on each nonzero entry x[r, c] as one integer test: the exponents of t_i[r]
and t_i^-1[c] sum to k and their coefficients multiply to 1.  That is exact,
because Z[qs^±1] is an integral domain and x[r, c] cancels; the gauge checks
and t_i t_i^-1 = 1 are decided so, and two diagonal t's commute.  A t_i of
any other form, or a failed entrywise test, falls back to the full product
and ``_compare``, whose witness names the first differing entry.  The
Serre sums are taken in Horner form (``_serre_sides``), and serre(i, j) and
serre(j, i) share their two products.  Every matrix product is one
kernel (``_product``), which multiplies one-term entries inline;
``verify_relations`` indexes each generator as a left factor once.
"""

from __future__ import annotations

from . import crystal as crys
from .cartan import AffineType, DOUBLE, FORK, SINGLE, CartanData, cartan_data, \
    fundamental_weight_cl
from .laurent import RationalScalar, format_poly, padd, pmul, qbinomial, \
    qfactorial, rational
from .theorems import FORK_TYPE, MATRIX_TYPE, classically_highest, h_diamond

_ZERO = RationalScalar.zero()
_ONE = RationalScalar.one()


class SparseOperator:
    """Sparse exact matrix acting on column vectors indexed 0..dim-1.

    Entries map (row, col) to a nonzero Z[qs^±1] dict.  The modified root
    operators of ``kashiwara_operators`` share this shape with
    ``RationalScalar`` entries; those are read and compared, not multiplied.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        self.entries = {rc: v for rc, v in entries.items() if v} if entries else {}

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        return cls.diagonal(dim, [{0: 1}] * dim)

    @classmethod
    def diagonal(cls, dim: int, values) -> "SparseOperator":
        return cls(dim, {(i, i): v for i, v in enumerate(values)})

    def scale(self, p: dict) -> "SparseOperator":
        return SparseOperator(self.dim, {rc: pmul(v, p) for rc, v in self.entries.items()})

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        e = dict(self.entries)
        for rc, v in other.entries.items():
            e[rc] = padd(e[rc], v) if rc in e else v
        return SparseOperator(self.dim, e)

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.dim, {rc: {k: -s for k, s in v.items()}
                                         for rc, v in self.entries.items()})

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + (-other)

    def is_diagonal(self) -> bool:
        return all(r == c for r, c in self.entries)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        return _product(self.dim, _column_index(self), other)

    def transpose(self) -> "SparseOperator":
        return SparseOperator(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def __eq__(self, other):
        return isinstance(other, SparseOperator) and self.dim == other.dim \
            and self.entries == other.entries

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={len(self.entries)})"


def _column_index(op: SparseOperator) -> dict:
    """col -> [(row, entry, exponent, coefficient)]: ``op`` as a left factor.
    Exponent and coefficient are None unless the entry has one term."""
    by_col = {}
    for (r, c), v in op.entries.items():
        e, s = next(iter(v.items())) if len(v) == 1 else (None, None)
        by_col.setdefault(c, []).append((r, v, e, s))
    return by_col


def _product(dim: int, by_col: dict, right: SparseOperator) -> SparseOperator:
    """The left factor given by its ``_column_index`` times ``right``; the
    product of two one-term entries is inline."""
    out = {}
    for (r2, c2), v2 in right.entries.items():
        col = by_col.get(r2)
        if col is None:
            continue
        e2, s2 = next(iter(v2.items())) if len(v2) == 1 else (None, None)
        for r1, v1, e1, s1 in col:
            acc = out.get((r1, c2))
            if e1 is None or e2 is None:
                p = pmul(v1, v2)
                out[r1, c2] = p if acc is None else padd(acc, p)
            elif acc is None:
                out[r1, c2] = {e1 + e2: s1 * s2}
            else:
                # in place: every accumulator is a dict built here
                e = e1 + e2
                s = acc.get(e, 0) + s1 * s2
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return SparseOperator(dim, out)


def kron(low: SparseOperator, high: SparseOperator) -> SparseOperator:
    """Tensor product; the first factor owns the low index bits."""
    d = low.dim
    high_terms = [(r2 * d, c2 * d, v2, *(next(iter(v2.items())) if len(v2) == 1
                                         else (None, None)))
                  for (r2, c2), v2 in high.entries.items()]
    out = {}
    for (r1, c1), v1 in low.entries.items():
        e1, s1 = next(iter(v1.items())) if len(v1) == 1 else (None, None)
        for r2, c2, v2, e2, s2 in high_terms:
            out[r1 + r2, c1 + c2] = pmul(v1, v2) if e1 is None or e2 is None \
                else {e1 + e2: s1 * s2}
    return SparseOperator(d * high.dim, out)


def _rational_columns(op: SparseOperator) -> dict:
    """col -> [(row, RationalScalar)]: a generator's entries over Q(qs)."""
    by_col = {}
    for (r, c), v in op.entries.items():
        by_col.setdefault(c, []).append((r, rational(v)))
    return by_col


def _apply_columns(by_col: dict, vec: dict) -> dict:
    """Image of a rational vector under the operator indexed by ``by_col``."""
    out = {}
    for c, v in vec.items():
        for r, a in by_col.get(c, ()):
            s = out.get(r)
            p = a * v
            s = p if s is None else s + p
            if s.is_zero:
                out.pop(r, None)
            else:
                out[r] = s
    return out


# -- fermionic generators ------------------------------------------------------


def _bit(n: int, j: int) -> int:
    return n - j


def _phase(state: int, bit: int) -> int:
    mask = (1 << bit) - 1
    return -1 if bin(state & mask).count("1") % 2 else 1


def psi(n: int, j: int) -> SparseOperator:
    """Creation at row j-bar with the fermionic phase over lower bits."""
    b = _bit(n, j)
    return SparseOperator(1 << n, {(s | (1 << b), s): {0: _phase(s, b)}
                                   for s in range(1 << n) if not (s >> b) & 1})


def psi_star(n: int, j: int) -> SparseOperator:
    """Annihilation at row j-bar, adjoint phase convention."""
    b = _bit(n, j)
    return SparseOperator(1 << n, {(s & ~(1 << b), s): {0: _phase(s, b)}
                                   for s in range(1 << n) if (s >> b) & 1})


def omega(n: int, j: int, unit: int, power: int = 1) -> SparseOperator:
    """Diagonal gauge operator: qs^(unit*power*(m_j - 1)) on each state."""
    b = _bit(n, j)
    return SparseOperator.diagonal(
        1 << n, [{unit * power * (((s >> b) & 1) - 1): 1} for s in range(1 << n)])


def parity(n: int) -> SparseOperator:
    """Fermion parity (-1)^(occupation count), the Klein twist factor."""
    return SparseOperator.diagonal(
        1 << n, [{0: -1 if bin(s).count("1") % 2 else 1} for s in range(1 << n)])


class Check:
    """One named statement and its verdict; equal when all three fields are."""

    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: str | None = None):
        self.name = name
        self.ok = ok
        self.witness = witness  # the first differing entry of a failed identity

    def __eq__(self, other):
        if other.__class__ is not Check:
            return NotImplemented
        return (self.name, self.ok, self.witness) == (other.name, other.ok, other.witness)


def _compare(name: str, lhs: SparseOperator, rhs: SparseOperator) -> Check:
    """The matrix identity lhs = rhs; a failure names its first differing entry."""
    a, b = lhs.entries, rhs.entries
    if a == b:
        return Check(name, True)
    rc = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return Check(name, False, f"entry {rc}: lhs {format_poly(a.get(rc, {}))}, "
                              f"rhs {format_poly(b.get(rc, {}))}")


# -- the generator family ------------------------------------------------------


class Representation:
    """Generator matrices for one labeling on the wedge space or its square."""

    __slots__ = ("type", "cd", "dim", "e", "f", "t", "tinv", "weights", "highest",
                 "columns")

    def __init__(self, type: AffineType, cd: CartanData, dim: int, e: dict, f: dict,
                 t: dict, tinv: dict, weights: list):
        self.type = type
        self.cd = cd
        self.dim = dim
        self.e = e
        self.f = f
        self.t = t
        self.tinv = tinv
        self.weights = weights  # basis index (= crystal id) -> coroot pairings
        # weight -> its WeightSpace, filled on first use by highest_vectors
        self.highest = {}
        # ("e" or "f", i) -> _rational_columns of that generator, filled on first use
        self.columns = {}


def _columns(rep: Representation, kind: str, i: int) -> dict:
    """The Q(qs) column form of ``rep.e[i]`` or ``rep.f[i]``, converted once."""
    if (kind, i) not in rep.columns:
        rep.columns[kind, i] = _rational_columns(getattr(rep, kind)[i])
    return rep.columns[kind, i]


def _klein_target(t: AffineType) -> int | None:
    """End node whose generators get the fermion-parity twist.

    Two remote odd generators anticommute; composing one short end with the
    parity operator restores the required commutation without touching any
    relation local to a single end.  Only configurations with a short end
    facing another non-fork end need it, and only on one side.
    """
    d0, dn = t.diamond
    if d0 == SINGLE and dn in (SINGLE, DOUBLE):
        return 0
    if dn == SINGLE and d0 == DOUBLE:
        return t.n
    return None


def _end_ops(t: AffineType, cd: CartanData, i: int):
    """Raw (e, f, t, t^-1) of end node i, for i = 0 or n.

    End n is end 0 mirrored: rows 1, 2 become n, n-1, creation and
    annihilation swap, and every gauge power and q-scale changes sign.  A
    DOUBLE end acts on the square directly; the other shapes act on one
    factor.
    """
    n = t.n
    unit = cd.qi_exp[1]
    if i == 0:
        shape, a, b, up, down, s = t.end0, 1, 2, psi, psi_star, 1
    else:
        shape, a, b, up, down, s = t.end_n, n, n - 1, psi_star, psi, -1
    q, qinv = {s * cd.qi_exp[i]: 1}, {-s * cd.qi_exp[i]: 1}
    if shape == SINGLE:
        return (up(n, a), down(n, a),
                omega(n, a, unit, s).scale(q), omega(n, a, unit, -s).scale(qinv))
    if shape == FORK:
        return (up(n, a) @ up(n, b), down(n, b) @ down(n, a),
                (omega(n, a, unit, s) @ omega(n, b, unit, s)).scale(q),
                (omega(n, a, unit, -s) @ omega(n, b, unit, -s)).scale(qinv))
    o, oi = omega(n, a, unit, 2 * s), omega(n, a, unit, -2 * s)
    return (kron(up(n, a), up(n, a)), kron(down(n, a), down(n, a)),
            kron(o, o).scale(q), kron(oi, oi).scale(qinv))


def representation(t: AffineType) -> Representation:
    """Generator matrices realizing the labeling on the appropriate space."""
    cd = cartan_data(t)
    n = t.n
    unit = cd.qi_exp[1]
    ops = {0: _end_ops(t, cd, 0)}
    for i in range(1, n):
        e_i = psi(n, i + 1) @ psi_star(n, i)
        # creation factor first; the anticommutation phase then makes the
        # string identity with e_i exact
        f_i = psi(n, i) @ psi_star(n, i + 1)
        t_i = omega(n, i + 1, unit) @ omega(n, i, unit, power=-1)
        ti_i = omega(n, i + 1, unit, power=-1) @ omega(n, i, unit)
        ops[i] = (e_i, f_i, t_i, ti_i)
    ops[n] = _end_ops(t, cd, n)
    target = _klein_target(t)
    if target is not None:
        p = parity(n)
        e1, f1, t1, ti1 = ops[target]
        ops[target] = (e1 @ p, p @ f1, t1, ti1)
    dim = 1 << n
    if t.doubled:
        ident = SparseOperator.identity(dim)
        squared = {i for i, shape in zip((0, n), t.diamond) if shape == DOUBLE}
        for i in range(n + 1):
            if i not in squared:
                e1, f1, t1, ti1 = ops[i]
                ops[i] = (kron(e1, ti1) + kron(ident, e1), kron(f1, ident) + kron(t1, f1),
                          kron(t1, t1), kron(ti1, ti1))
        dim *= dim
    e, f, tt, tinv = ({i: ops[i][k] for i in range(n + 1)} for k in range(4))
    weights = crys.rule_weights(crys.rules(t), range(dim))
    return Representation(type=t, cd=cd, dim=dim,
                          e=e, f=f, t=tt, tinv=tinv, weights=weights)


# -- relation and polarization suites -----------------------------------------


def _monomial_diagonal(op: SparseOperator):
    """(exponents, coefficients) by row when ``op`` is diagonal with a
    one-term entry on every row, else None."""
    ent = op.entries
    if len(ent) != op.dim:
        return None
    exps, coeffs = [], []
    for r in range(op.dim):
        v = ent.get((r, r))
        if v is None or len(v) != 1:
            return None
        (e, s), = v.items()
        exps.append(e)
        coeffs.append(s)
    return exps, coeffs


def _conjugates_to(d, dinv, x: SparseOperator, k: int) -> bool:
    """d x dinv = qs^k x for monomial diagonals d, dinv, decided entrywise:
    d[r] x[r, c] dinv[c] = qs^k x[r, c] exactly when the exponents of d[r]
    and dinv[c] sum to k and their coefficients multiply to 1, since x[r, c]
    is nonzero and Z[qs^±1] has no zero divisors."""
    (de, ds), (ie, is_) = d, dinv
    return all(de[r] + ie[c] == k and ds[r] * is_[c] == 1 for r, c in x.entries)


def _serre_sides(mul, xi: SparseOperator, ij: SparseOperator, b: SparseOperator,
                 m: int, unit: int):
    """Two sides whose difference is sum_k (-1)^k [m choose k] x_i^k x_j x_i^(m-k),
    from ij = x_i x_j and b = x_j x_i.

    Horner form over B_r = x_j x_i^r: with T_m = B_0 and
    T_k = [m choose k] B_(m-k) - x_i T_(k+1), the sum is T_0 = B_m - x_i T_1,
    returned as (B_m, x_i T_1); no power of x_i and no product with the
    identity is formed.  ``mul`` multiplies two operators.
    """
    rhs = ij
    for k in range(m - 1, 0, -1):
        rhs = mul(xi, b.scale(qbinomial(m, k, unit)) - rhs)
        b = b @ xi
    return b, rhs


def verify_relations(rep: Representation):
    """Every defining relation, checked as an exact matrix identity.

    Denominators are cleared, so every check stays in Z[qs^±1]: the string
    identity reads (q_i - q_i^-1)[e_i, f_i] = t_i - t_i^-1, and the Serre
    relation sum_k (-1)^k [m choose k]_i x_i^k x_j x_i^(m-k) = 0 for x = e, f
    and m = 1 - a_ij.

    When t_i and t_i^-1 are diagonal with one-term entries, t_i t_i^-1 = 1
    and the gauge identities are decided entrywise (``_conjugates_to``), and
    two diagonal t's commute.  Otherwise, and for every entrywise failure,
    both sides are built as products and ``_compare`` names the witness, so
    the output is that of the product form.
    """
    idx = range(rep.type.n + 1)
    ident = SparseOperator.identity(rep.dim)
    zero = SparseOperator(rep.dim)
    a, qe = rep.cd.a, rep.cd.qi_exp
    t, tinv = rep.t, rep.tinv
    mono = {i: (_monomial_diagonal(t[i]), _monomial_diagonal(tinv[i])) for i in idx}
    # every e and f enters many products as the left factor: index it once
    index = {id(op): _column_index(op) for ops in (rep.e, rep.f) for op in ops.values()}

    def mul(left, right):
        by_col = index.get(id(left))
        return left @ right if by_col is None else _product(rep.dim, by_col, right)

    def conjugation(name, i, x, k):
        """The check t_i x t_i^-1 = qs^k x, entrywise where it can be."""
        d, dinv = mono[i]
        if d is not None and dinv is not None and _conjugates_to(d, dinv, x, k):
            return Check(name, True)
        return _compare(name, t[i] @ x @ tinv[i], x.scale({k: 1}))

    checks = [conjugation(f"t({i}) t({i})^-1 = 1", i, ident, 0) for i in idx]
    checks += [Check(f"t({i}) t({j}) commute", True)
               if t[i].is_diagonal() and t[j].is_diagonal()
               else _compare(f"t({i}) t({j}) commute", t[i] @ t[j], t[j] @ t[i])
               for i in idx for j in idx if j > i]
    for i in idx:
        for j in idx:
            checks.append(conjugation(f"t({i}) e({j}) gauge", i, rep.e[j], qe[i] * a[i][j]))
            checks.append(conjugation(f"t({i}) f({j}) gauge", i, rep.f[j], -qe[i] * a[i][j]))
    for i in idx:
        for j in idx:
            ef, fe = mul(rep.e[i], rep.f[j]), mul(rep.f[j], rep.e[i])
            if i == j:
                checks.append(_compare(f"[e({i}), f({i})] string identity",
                                       (ef - fe).scale({qe[i]: 1, -qe[i]: -1}),
                                       t[i] - tinv[i]))
            else:
                checks.append(_compare(f"[e({i}), f({j})] = 0", ef, fe))
    # serre(i, j) and serre(j, i) share the products x_i x_j and x_j x_i:
    # both are checked at (i, j), i < j, and serre(j, i) waits for its turn.
    # A sum is zero exactly when its two sides are equal, since entries are
    # stored without zero terms; only a failure forms the sum, for its witness
    pending = {}
    for i in idx:
        for j in idx:
            if j == i:
                continue
            for x, ops in (("e", rep.e), ("f", rep.f)):
                if j > i:
                    ij, ji = mul(ops[i], ops[j]), mul(ops[j], ops[i])
                    for p, q, pq, qp in ((i, j, ij, ji), (j, i, ji, ij)):
                        lhs, rhs = _serre_sides(mul, ops[p], pq, qp, 1 - a[p][q], qe[p])
                        name = f"serre {x}({p},{q})"
                        pending[x, p, q] = Check(name, True) if lhs == rhs else \
                            _compare(name, lhs - rhs, zero)
                checks.append(pending.pop((x, i, j)))
    return checks


def verify_weight_compatibility(rep: Representation):
    """Diagonal gauge eigenvalues match the crystal weights exactly."""
    qe = rep.cd.qi_exp
    return [_compare(f"t({i}) eigenvalues match weights", rep.t[i],
                     SparseOperator.diagonal(rep.dim, [{qe[i] * w[i]: 1}
                                                       for w in rep.weights]))
            for i in range(rep.type.n + 1)]


def verify_polarization(rep: Representation):
    """Transpose against the twisted antiautomorphism, entry by entry."""
    checks = []
    for i in range(rep.type.n + 1):
        qinv = {-rep.cd.qi_exp[i]: 1}
        checks.append(_compare(f"polarization e({i})", rep.e[i].transpose(),
                               (rep.tinv[i] @ rep.f[i]).scale(qinv)))
        checks.append(_compare(f"polarization f({i})", rep.f[i].transpose(),
                               (rep.t[i] @ rep.e[i]).scale(qinv)))
        checks.append(_compare(f"polarization t({i})", rep.t[i].transpose(), rep.t[i]))
    return checks


# -- exact sparse row reduction ------------------------------------------------


def _rref(rows) -> dict:
    """Reduced row echelon form of sparse rows {column: RationalScalar}.

    Columns are ordered integers.  Returns {pivot column: row}: each row has
    a unit entry at its pivot, no entry left of it, and no entry at any
    other pivot column.  That form is unique, so it does not depend on the
    order of the rows.
    """
    red = {}
    for row in rows:
        # pivot rows are fully reduced: subtracting one leaves the row's
        # entries at the other pivot columns as they are
        for p in [c for c in row if c in red]:
            row = _sub_multiple(row, row[p], red[p])
        if not row:
            continue
        p = min(row)
        inv = row[p].inverse()
        row = {c: v * inv for c, v in row.items()}
        for q, qrow in red.items():
            if p in qrow:
                red[q] = _sub_multiple(qrow, qrow[p], row)
        red[p] = row
    return red


def _sub_multiple(row: dict, factor: RationalScalar, prow: dict) -> dict:
    """row - factor * prow, with zero entries dropped."""
    out = dict(row)
    for c, v in prow.items():
        s = out.get(c)
        s = -(factor * v) if s is None else s - factor * v
        if s.is_zero:
            del out[c]
        else:
            out[c] = s
    return out


def _kernel(rows, cols) -> list:
    """Basis of the right kernel over the ordered columns ``cols``, one
    vector per free column."""
    red = _rref(rows)
    vecs = {free: {} for free in cols if free not in red}
    for c in cols:
        if c in vecs:
            vecs[c][c] = _ONE
        else:
            for free, v in red[c].items():
                if free in vecs:
                    vecs[free][c] = -v
    return list(vecs.values())


def _solve(rows, cols) -> dict:
    """Reduce [A | B] where the columns ``cols`` of A form a square block.

    The reduced row at each column c of ``cols`` then holds row c of A^-1 B
    in the columns of B.
    """
    red = _rref(rows)
    if any(c not in red for c in cols):
        raise ArithmeticError("singular change of basis")
    return red


# -- modified root operators from the module -----------------------------------


def kashiwara_operators(rep: Representation, i: int):
    """(raising, lowering) modified root operators, extracted block by block.

    An entry (r, c) of e_i or f_i changes only the bits of r ^ c, so with
    ``mask`` the union of those bits, each coset of ``mask`` (the ids x of
    one x & ~mask, a block) is closed under e_i, f_i and the diagonal t_i.
    It spans a U_q(sl_2)_i-submodule, and Kashiwara's operators act on each
    block separately.  Each block is solved by ``_block_operators``, once
    per block shape (``_block_shape``).
    """
    dim = rep.dim
    unit = rep.cd.qi_exp[i]
    w = [wt[i] for wt in rep.weights]
    mask = 0
    e_cols, f_cols = {}, {}  # col -> [(row, Z[qs^±1] entry)]
    for (r, c), v in rep.e[i].entries.items():
        if w[r] != w[c] + 2:
            raise ArithmeticError(f"raising operator {i} is not weight-homogeneous")
        e_cols.setdefault(c, []).append((r, v))
        mask |= r ^ c
    for (r, c), v in rep.f[i].entries.items():
        if w[r] != w[c] - 2:
            raise ArithmeticError(f"lowering operator {i} is not weight-homogeneous")
        f_cols.setdefault(c, []).append((r, v))
        mask |= r ^ c
    blocks = {}
    for x in range(dim):
        blocks.setdefault(x & ~mask, []).append(x)

    et = SparseOperator(dim)
    ft = SparseOperator(dim)
    total = 0
    solved = {}  # block shape -> _block_operators of it
    for members in blocks.values():
        shape = _block_shape(members, w, e_cols, f_cols)
        if shape not in solved:
            solved[shape] = _block_operators(shape, unit)
        count, block_et, block_ft = solved[shape]
        total += count
        for op, block_op in ((et, block_et), (ft, block_ft)):
            for (r, c), v in block_op.items():
                op.entries[members[r], members[c]] = v
    if total != dim:
        raise ArithmeticError(f"string count {total} does not fill dimension {dim}")
    return et, ft


def _block_shape(members, w, e_cols, f_cols):
    """The block renumbered 0..s-1 in the order of its ascending members:
    the i-weights, then the entries of e_i and of f_i as sorted
    (row, col, terms) tuples.  ``_block_operators`` depends on nothing else
    and keeps that order, so blocks of one shape share its result."""
    local = {x: k for k, x in enumerate(members)}

    def entries(cols):
        return tuple(sorted((local[r], local[c], tuple(sorted(v.items())))
                            for c in members for r, v in cols.get(c, ())))

    return tuple(w[x] for x in members), entries(e_cols), entries(f_cols)


def _block_operators(shape, unit: int):
    """Kashiwara's operators on one block shape by exact elimination:
    (number of string vectors, {(row, col): e~ entry}, {(row, col): f~
    entry}), all in the shape's numbering.

    The strings start at a basis of the kernel of e_i on each weight space
    of weight m >= 0 and run through the divided powers f^(r), r = 0..m;
    a change of basis per weight space then reads off both operators.
    """
    weights, e_entries, f_entries = shape
    size = len(weights)
    e_rat, f_rat, buckets = {}, {}, {}
    for cols, entries in ((e_rat, e_entries), (f_rat, f_entries)):
        for r, c, terms in entries:
            cols.setdefault(c, []).append((r, rational(dict(terms))))
    for x, wt in enumerate(weights):
        buckets.setdefault(wt, []).append(x)

    strings = []  # (top_weight m, [w_r dicts for r = 0..m])
    for m, cols in sorted(buckets.items(), reverse=True):
        if m < 0:
            continue
        rows = {}
        for c in cols:
            for r, v in e_rat.get(c, ()):
                rows.setdefault(r, {})[c] = v
        for u in _kernel(rows.values(), cols):
            chain = [u]
            vec = u
            for _ in range(m):
                vec = _apply_columns(f_rat, vec)
                chain.append(vec)
            if _apply_columns(f_rat, vec):
                raise ArithmeticError(f"string through weight {m} does not close")
            vecs = []
            for r, vec in enumerate(chain):
                fact = rational(qfactorial(r, unit)).inverse()
                vecs.append({k: v * fact for k, v in vec.items()})
            strings.append((m, vecs))

    # change of basis per weight value: one row per string vector, holding
    # it over the block's basis, its image under the modified raising
    # operator at size + k and its image under the lowering one at
    # 2 size + k.  With S, E, F those vectors as columns, the reduced form is
    # [I | (E S^-1)^T | (F S^-1)^T]: row c holds column c of both operators.
    by_weight = {}
    for m, vecs in strings:
        for r, vec in enumerate(vecs):
            row = dict(vec)
            if r >= 1:
                row.update((size + k, v) for k, v in vecs[r - 1].items())
            if r < m:
                row.update((2 * size + k, v) for k, v in vecs[r + 1].items())
            by_weight.setdefault(m - 2 * r, []).append(row)
    et, ft = {}, {}
    for lam, rows in by_weight.items():
        idxs = buckets.get(lam, [])
        if len(rows) != len(idxs):
            raise ArithmeticError("weight space dimension mismatch")
        red = _solve(rows, idxs)
        for c in idxs:
            for k, v in red[c].items():
                if k >= 2 * size:
                    ft[k - 2 * size, c] = v
                elif k >= size:
                    et[k - size, c] = v
    return sum(m + 1 for m, _ in strings), et, ft


def crystal_match(rep: Representation):
    """Specialize the modified operators at qs = 0 and compare adjacency
    with the step tables of the crystal's rules."""
    t = rep.type
    checks = []
    for i, rule in enumerate(crys.rules(t)):
        et, ft = kashiwara_operators(rep, i)
        mask, f, e = crys.steps(rule)
        for name, op, table in ((f"e~({i})", et, e), (f"f~({i})", ft, f)):
            regular = all(v.is_regular for v in op.entries.values())
            checks.append(Check(f"{name} lattice-regular", regular))
            if not regular:
                continue
            reduced = {}
            for (r, c), v in op.entries.items():
                val = v.eval_at_zero()
                if val:
                    reduced[(r, c)] = val
            adjacency = {(x ^ table[x & mask], x) for x in range(rep.dim)
                         if table[x & mask]}
            same = set(reduced) == adjacency and \
                all(abs(v) == 1 for v in reduced.values())
            checks.append(Check(f"{name} matches the crystal adjacency", same))
            cols = {}
            for (r, c), v in reduced.items():
                cols[c] = cols.get(c, 0) + 1
            checks.append(Check(f"{name} single-valued columns",
                                all(v == 1 for v in cols.values())))
    return checks


# -- highest vectors and the null-root shift -----------------------------------


class WeightSpace(list):
    """One weight space of the module: the exact basis of the joint kernel of
    the classical raising operators e_1..e_n on it, as a list of vectors,
    and in ``ids`` the crystal's classically-highest ids of that weight, in
    id order.  The two sides of the highest-vector count."""

    __slots__ = ("ids",)

    def __init__(self, kernel, ids):
        super().__init__(kernel)
        self.ids = ids


def highest_vectors(rep: Representation, weight_vec) -> WeightSpace:
    """The :class:`WeightSpace` of ``weight_vec``, from one scan of the basis.

    Computed once per weight and kept in ``rep.highest``; callers must not
    mutate it or its vectors.
    """
    weight_vec = tuple(weight_vec)
    if weight_vec in rep.highest:
        return rep.highest[weight_vec]
    idxs = [idx for idx in range(rep.dim) if rep.weights[idx] == weight_vec]
    rows = {}
    for i in range(1, rep.type.n + 1):
        by_col = _columns(rep, "e", i)
        for c in idxs:
            for r, v in by_col.get(c, ()):
                rows.setdefault((i, r), {})[c] = v
    space = rep.highest[weight_vec] = WeightSpace(
        _kernel(rows.values(), idxs), classically_highest(crys.rules(rep.type), idxs))
    return space


def normalized_highest_vector(rep: Representation, k: int, l: int):
    """The classical highest vector with unit coefficient on its leading term.

    Normalized so the coefficient at the canonical (k, l) basis state is 1
    and the coefficients at all other classically-highest states are 0;
    checks that the remainder lies in qs times the lattice.  When (k, l)
    is not classically highest, or the kernel and the crystal count differ,
    there is nothing to normalize: the vector is empty and the check fails.
    """
    t = rep.type
    target = crys.v_kl(t, k, l)
    kernel = highest_vectors(rep, fundamental_weight_cl(t, k))
    ids = kernel.ids
    if target not in ids or len(kernel) != len(ids):
        return {}, False, len(kernel)
    # solve for the coefficients lam_j of the kernel vectors: sum_j lam_j
    # v_j is 1 at the target and 0 at the other highest states
    unit = len(kernel)
    rows = [{j: vec[idx] for j, vec in enumerate(kernel) if idx in vec}
            for idx in ids]
    rows[ids.index(target)][unit] = _ONE
    red = _solve(rows, range(unit))
    coeffs = {j: red[j][unit] for j in range(unit) if unit in red[j]}
    out = _apply_columns({j: list(vec.items()) for j, vec in enumerate(kernel)}, coeffs)
    ok = all(v.is_regular for v in out.values())
    if ok:
        for idx, v in out.items():
            val = v.eval_at_zero()
            if idx == target and val != 1:
                ok = False
            if idx != target and val != 0:
                ok = False
        ok = ok and out.get(target) == _ONE
    return out, ok, len(kernel)


def verify_highest(rep: Representation):
    """Per component (k, l) of a matrix type: the classical highest vectors
    at its weight are as many as the crystal's classically-highest states,
    and the normalized highest vector at (k, l) exists.  A failed count
    names both sides."""
    t = rep.type
    checks = []
    for (k, l) in h_diamond(t):
        space = highest_vectors(rep, fundamental_weight_cl(t, k))
        same = len(space) == len(space.ids)
        witness = None if same else \
            f"kernel dimension {len(space)}, crystal count {len(space.ids)}"
        checks.append(Check(f"highest-vector count at weight index {k}", same, witness))
        _, ok, _ = normalized_highest_vector(rep, k, l)
        checks.append(Check(f"normalized highest vector ({k},{l})", ok))
    return checks


def apply_extremal_word(rep: Representation, vec: dict, elem, word):
    """Divided-power word application tracking the crystal element.

    The divided power x^(k) = x^k / [k]_i! applies the integer power, then
    scales the rational vector by 1/[k]_i!.
    """
    for i in word:
        m = rep.weights[elem][i]
        by_col = _columns(rep, "f" if m >= 0 else "e", i)
        for _ in range(abs(m)):
            vec = _apply_columns(by_col, vec)
        inv = rational(qfactorial(abs(m), rep.cd.qi_exp[i])).inverse()
        vec = {idx: v * inv for idx, v in vec.items()}
        elem = crys.weyl_reflection(rep.type, i, elem)
    return vec, elem


def verify_null_shift(rep: Representation):
    """Leading-coefficient behavior of the shift word on highest vectors.

    For each middle k the word is applied by divided powers to the
    normalized highest vector; the image must have coefficient +-1 on the
    partner state (the sign is an artifact of the operator ordering
    conventions) and a remainder in qs times the lattice.  When the highest
    weight space is two-dimensional the word must swap the two normalized
    vectors exactly, with one common sign: the two sign combinations are
    then exact eigenvectors with eigenvalues +1 and -1.
    """
    t = rep.type
    if t.diamond != (FORK, DOUBLE):
        raise ValueError("null-root shift check needs the fork-plus-double type")
    n = t.n
    checks = []
    minus_one = -_ONE
    for k in range(1, n):
        word = crys.delta_word(t, k)
        va_el = crys.v_kl(t, k, n - k)
        vb_el = crys.v_kl(t, k, n - k - 1)
        va, ok_a, dim_a = normalized_highest_vector(rep, k, n - k)
        vb, ok_b, _ = normalized_highest_vector(rep, k, n - k - 1)
        checks.append(Check(f"k={k} highest vector ({k},{n-k}) congruent", ok_a))
        checks.append(Check(f"k={k} highest vector ({k},{n-k-1}) congruent", ok_b))
        img_a, end_a = apply_extremal_word(rep, va, va_el, word)
        img_b, end_b = apply_extremal_word(rep, vb, vb_el, word)
        checks.append(Check(f"k={k} word moves the crystal representatives",
                            end_a == vb_el and end_b == va_el))
        signs = []
        for name, img, target in ((f"k={k} image of ({k},{n-k})", img_a, vb_el),
                                  (f"k={k} image of ({k},{n-k-1})", img_b, va_el)):
            lead = img.get(target, _ZERO)
            good = lead in (_ONE, minus_one) and \
                all(v.is_regular for v in img.values()) and \
                all(v.eval_at_zero() == 0 for idx, v in img.items() if idx != target)
            signs.append(lead)
            checks.append(Check(f"{name} is a signed unit leading term", good))
        if dim_a == 2:
            sign = signs[0]
            swapped = sign in (_ONE, minus_one) and signs[1] == sign and \
                img_a == {i: sign * v for i, v in vb.items()} and \
                img_b == {i: sign * v for i, v in va.items()}
            checks.append(Check(f"k={k} signed swap on the two-dimensional space",
                                swapped))
    return checks


# -- check groups --------------------------------------------------------------

_ANY_TYPE = (lambda t: True, "any type")

# check group -> (the functions that run it, in order; the type it needs),
# in the order of the CLI's flags, which run every applicable group by default
GROUPS = {
    "relations": (("verify_relations", "verify_weight_compatibility"), _ANY_TYPE),
    "polarization": (("verify_polarization",), _ANY_TYPE),
    "crystal_match": (("crystal_match",), _ANY_TYPE),
    "highest": (("verify_highest",), MATRIX_TYPE),
    "deltaword": (("verify_null_shift",), FORK_TYPE),
}
