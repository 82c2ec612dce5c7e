"""Exact symbolic layer: deformed fermion operators and module checks.

Basis states of the single wedge space are bit masks over the barred
alphabet (bit n-j holds row j-bar, matching the crystal ids); the doubled
space indexes pairs of masks, low bits first.  Creation and annihilation
carry the usual fermionic phase over the lower bits; the diagonal gauge
operators carry the deformation parameter of the middle nodes.

On top of the raw operators the module builds the full generator family
for any of the seven labelings, checks the defining relations and the
bilinear-form compatibility exactly, extracts the modified root operators
weight space by weight space, and compares their specialization at qs = 0
with the combinatorial crystal.

Every generator entry is a signed monomial in qs, so generator matrices
hold integer Laurent polynomials (``laurent`` dicts, Z[qs^±1]) and the
relation checks, stated with their denominators cleared, never leave that
ring.  Only the extraction of modified root operators and highest vectors
works in Q(qs): it converts a generator's entries with ``laurent.rational``
where they enter a linear system or multiply a rational vector.  Every
linear system there is solved by one sparse row reduction over Q(qs)
(``_rref``), fed with the nonzero entries only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crystal as crys
from .cartan import AffineType, DOUBLE, FORK, SINGLE, CartanData, cartan_data, \
    fundamental_weight_cl
from .laurent import RationalScalar, format_poly, padd, pmul, qbinomial, \
    qfactorial, rational

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

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, p: dict) -> "SparseOperator":
        return SparseOperator(self.dim, {rc: pmul(v, p) for rc, v in self.entries.items()})

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        e = dict(self.entries)
        for rc, v in other.entries.items():
            e[rc] = padd(e[rc], v) if rc in e else v
        return SparseOperator(self.dim, e)

    def __neg__(self) -> "SparseOperator":
        return self.scale({0: -1})

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + (-other)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        by_col = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        out = {}
        for (r2, c2), v2 in other.entries.items():
            for r1, v1 in by_col.get(r2, ()):
                p = pmul(v1, v2)
                out[r1, c2] = padd(out[r1, c2], p) if (r1, c2) in out else p
        return SparseOperator(self.dim, out)

    def transpose(self) -> "SparseOperator":
        return SparseOperator(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def apply(self, vec: dict) -> dict:
        """Image of a column vector {index: Z[qs^±1] dict}."""
        col = SparseOperator(self.dim, {(c, 0): v for c, v in vec.items()})
        return {r: v for (r, _), v in (self @ col).entries.items()}

    def __eq__(self, other):
        return isinstance(other, SparseOperator) and self.dim == other.dim \
            and self.entries == other.entries

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={len(self.entries)})"


def kron(low: SparseOperator, high: SparseOperator) -> SparseOperator:
    """Tensor product; the first factor owns the low index bits."""
    d = low.dim
    return SparseOperator(d * high.dim, {
        (r1 + r2 * d, c1 + c2 * d): pmul(v1, v2)
        for (r1, c1), v1 in low.entries.items()
        for (r2, c2), v2 in high.entries.items()})


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


@dataclass
class Check:
    name: str
    ok: bool
    witness: str | None = None  # the first differing entry of a failed identity


def _compare(name: str, lhs: SparseOperator, rhs: SparseOperator) -> Check:
    """The matrix identity lhs = rhs; a failure names its first differing entry."""
    a, b = lhs.entries, rhs.entries
    if a == b:
        return Check(name, True)
    rc = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return Check(name, False, f"entry {rc}: lhs {format_poly(a.get(rc, {}))}, "
                              f"rhs {format_poly(b.get(rc, {}))}")


def clifford_relation_checks(n: int, unit: int):
    """Exact checks of the generator relations on the 2^n-dimensional space.

    The diagonal identities are multiplied through by q - q^-1.
    """
    checks = []
    dim = 1 << n
    ident, zero = SparseOperator.identity(dim), SparseOperator(dim)
    qdiff = {unit: 1, -unit: -1}
    for a in range(1, n + 1):
        pa, psa = psi(n, a), psi_star(n, a)
        oa = omega(n, a, unit)
        oai = omega(n, a, unit, power=-1)
        checks.append(_compare(f"omega({a}) invertible", oa @ oai, ident))
        checks.append(_compare(f"psi({a})psi*({a}) diagonal identity",
                               (pa @ psa).scale(qdiff),
                               oa.scale({unit: 1}) - oai.scale({-unit: 1})))
        checks.append(_compare(f"psi*({a})psi({a}) diagonal identity",
                               (psa @ pa).scale(qdiff), oai - oa))
        for b in range(1, n + 1):
            pb, psb = psi(n, b), psi_star(n, b)
            checks.append(_compare(f"psi({a})psi({b}) anticommute",
                                   pa @ pb + pb @ pa, zero))
            checks.append(_compare(f"psi*({a})psi*({b}) anticommute",
                                   psa @ psb + psb @ psa, zero))
            if a != b:
                checks.append(_compare(f"psi({a})psi*({b}) anticommute",
                                       pa @ psb + psb @ pa, zero))
            ob = omega(n, b, unit)
            obi = omega(n, b, unit, power=-1)
            shift = unit if a == b else 0
            checks.append(_compare(f"omega({b})psi({a}) gauge",
                                   ob @ pa @ obi, pa.scale({shift: 1})))
            checks.append(_compare(f"omega({b})psi*({a}) gauge",
                                   ob @ psa @ obi, psa.scale({-shift: 1})))
    return checks


# -- the generator family ------------------------------------------------------


@dataclass
class Representation:
    """Generator matrices for one labeling on the wedge space or its square."""

    type: AffineType
    cd: CartanData
    dim: int
    e: dict
    f: dict
    t: dict
    tinv: dict
    weights: list = field(repr=False)  # basis index (= crystal id) -> coroot pairings
    # weight -> highest_vectors(rep, weight), filled on first use
    highest: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # ("e" or "f", i) -> _rational_columns of that generator, filled on first use
    columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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


def _end_ops_single(t: AffineType, cd: CartanData):
    """Raw end-node operators on the single space (no doubled ends here)."""
    n = t.n
    unit = cd.qi_exp[1]
    ops = {}
    q0, q0i = {cd.qi_exp[0]: 1}, {-cd.qi_exp[0]: 1}
    qn, qni = {cd.qi_exp[n]: 1}, {-cd.qi_exp[n]: 1}
    if t.end0 == SINGLE:
        ops[0] = (psi(n, 1), psi_star(n, 1),
                  omega(n, 1, unit).scale(q0),
                  omega(n, 1, unit, power=-1).scale(q0i))
    elif t.end0 == FORK:
        o = omega(n, 1, unit) @ omega(n, 2, unit)
        oi = omega(n, 1, unit, power=-1) @ omega(n, 2, unit, power=-1)
        ops[0] = (psi(n, 1) @ psi(n, 2), psi_star(n, 2) @ psi_star(n, 1),
                  o.scale(q0), oi.scale(q0i))
    if t.end_n == SINGLE:
        ops[n] = (psi_star(n, n), psi(n, n),
                  omega(n, n, unit, power=-1).scale(qni),
                  omega(n, n, unit).scale(qn))
    elif t.end_n == FORK:
        o = omega(n, n, unit, power=-1) @ omega(n, n - 1, unit, power=-1)
        oi = omega(n, n, unit) @ omega(n, n - 1, unit)
        ops[n] = (psi_star(n, n) @ psi_star(n, n - 1), psi(n, n - 1) @ psi(n, n),
                  o.scale(qni), oi.scale(qn))
    target = _klein_target(t)
    if target in ops:
        p = parity(n)
        e, f, tt, ti = ops[target]
        ops[target] = (e @ p, p @ f, tt, ti)
    return ops


def representation(t: AffineType) -> Representation:
    """Generator matrices realizing the labeling on the appropriate space."""
    cd = cartan_data(t)
    n = t.n
    unit = cd.qi_exp[1]
    single = {}
    for i in range(1, n):
        e_i = psi(n, i + 1) @ psi_star(n, i)
        # creation factor first; the anticommutation phase then makes the
        # string identity with e_i exact
        f_i = psi(n, i) @ psi_star(n, i + 1)
        t_i = omega(n, i + 1, unit) @ omega(n, i, unit, power=-1)
        ti_i = omega(n, i + 1, unit, power=-1) @ omega(n, i, unit)
        single[i] = (e_i, f_i, t_i, ti_i)
    single.update(_end_ops_single(t, cd))

    if not t.doubled:
        dim = 1 << n
        e = {i: single[i][0] for i in range(n + 1)}
        f = {i: single[i][1] for i in range(n + 1)}
        tt = {i: single[i][2] for i in range(n + 1)}
        tinv = {i: single[i][3] for i in range(n + 1)}
    else:
        dim = 1 << (2 * n)
        half = 1 << n
        ident = SparseOperator.identity(half)
        e, f, tt, tinv = {}, {}, {}, {}
        for i in range(n + 1):
            if (i == 0 and t.end0 == DOUBLE) or (i == n and t.end_n == DOUBLE):
                q_end, q_end_inv = {cd.qi_exp[i]: 1}, {-cd.qi_exp[i]: 1}
                if i == 0:
                    e[i] = kron(psi(n, 1), psi(n, 1))
                    f[i] = kron(psi_star(n, 1), psi_star(n, 1))
                    o2 = omega(n, 1, unit, power=2)
                    o2i = omega(n, 1, unit, power=-2)
                    tt[i] = kron(o2, o2).scale(q_end)
                    tinv[i] = kron(o2i, o2i).scale(q_end_inv)
                else:
                    e[i] = kron(psi_star(n, n), psi_star(n, n))
                    f[i] = kron(psi(n, n), psi(n, n))
                    o2 = omega(n, n, unit, power=2)
                    o2i = omega(n, n, unit, power=-2)
                    tt[i] = kron(o2i, o2i).scale(q_end_inv)
                    tinv[i] = kron(o2, o2).scale(q_end)
            else:
                e1, f1, t1, ti1 = single[i]
                e[i] = kron(e1, ti1) + kron(ident, e1)
                f[i] = kron(f1, ident) + kron(t1, f1)
                tt[i] = kron(t1, t1)
                tinv[i] = kron(ti1, ti1)
    weights = [crys.weight(t, x) for x in range(dim)]
    return Representation(type=t, cd=cd, dim=dim,
                          e=e, f=f, t=tt, tinv=tinv, weights=weights)


# -- relation and polarization suites -----------------------------------------


def verify_relations(rep: Representation):
    """Every defining relation, checked as an exact matrix identity.

    Denominators are cleared, so every check stays in Z[qs^±1]: the string
    identity reads (q_i - q_i^-1)[e_i, f_i] = t_i - t_i^-1, and the Serre
    relation sum_k (-1)^k [m choose k]_i x_i^k x_j x_i^(m-k) = 0 for x = e, f
    and m = 1 - a_ij.
    """
    idx = range(rep.type.n + 1)
    ident = SparseOperator.identity(rep.dim)
    zero = SparseOperator(rep.dim)
    a, qe = rep.cd.a, rep.cd.qi_exp
    t, tinv = rep.t, rep.tinv
    checks = [_compare(f"t({i}) t({i})^-1 = 1", t[i] @ tinv[i], ident) for i in idx]
    checks += [_compare(f"t({i}) t({j}) commute", t[i] @ t[j], t[j] @ t[i])
               for i in idx for j in idx if j > i]
    for i in idx:
        for j in idx:
            checks.append(_compare(f"t({i}) e({j}) gauge", t[i] @ rep.e[j] @ tinv[i],
                                   rep.e[j].scale({qe[i] * a[i][j]: 1})))
            checks.append(_compare(f"t({i}) f({j}) gauge", t[i] @ rep.f[j] @ tinv[i],
                                   rep.f[j].scale({-qe[i] * a[i][j]: 1})))
    for i in idx:
        for j in idx:
            ef, fe = rep.e[i] @ rep.f[j], rep.f[j] @ rep.e[i]
            if i == j:
                checks.append(_compare(f"[e({i}), f({i})] string identity",
                                       (ef - fe).scale({qe[i]: 1, -qe[i]: -1}),
                                       t[i] - tinv[i]))
            else:
                checks.append(_compare(f"[e({i}), f({j})] = 0", ef, fe))
    for i in idx:
        top = max(1 - a[i][j] for j in idx if j != i)
        powers = {}
        for x, ops in (("e", rep.e), ("f", rep.f)):
            powers[x] = [ident]
            for _ in range(top):
                powers[x].append(powers[x][-1] @ ops[i])
        for j in idx:
            if j == i:
                continue
            m = 1 - a[i][j]
            for x, ops in (("e", rep.e), ("f", rep.f)):
                total = zero
                for k in range(m + 1):
                    term = (powers[x][k] @ ops[j] @ powers[x][m - k]).scale(
                        qbinomial(m, k, qe[i]))
                    total = total + term if k % 2 == 0 else total - term
                checks.append(_compare(f"serre {x}({i},{j})", total, zero))
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
    """(raising, lowering) operators extracted per i-weight space."""
    dim = rep.dim
    unit = rep.cd.qi_exp[i]
    buckets = {}
    for idx in range(dim):
        buckets.setdefault(rep.weights[idx][i], []).append(idx)
    for r, c in rep.e[i].entries:
        if rep.weights[r][i] != rep.weights[c][i] + 2:
            raise ArithmeticError(f"raising operator {i} is not weight-homogeneous")
    by_col, f_cols = _columns(rep, "e", i), _columns(rep, "f", i)

    strings = []  # (top_weight m, [w_r dicts for r = 0..m])
    for m, cols in sorted(buckets.items(), reverse=True):
        if m < 0:
            continue
        rows = {}
        for c in cols:
            for r, v in by_col.get(c, ()):
                rows.setdefault(r, {})[c] = v
        for u in _kernel(rows.values(), cols):
            chain = [u]
            w = u
            for _ in range(m):
                w = _apply_columns(f_cols, w)
                chain.append(w)
            if _apply_columns(f_cols, w):
                raise ArithmeticError(f"string through weight {m} does not close")
            vecs = []
            for r, w in enumerate(chain):
                fact = rational(qfactorial(r, unit)).inverse()
                vecs.append({k: v * fact for k, v in w.items()})
            strings.append((m, vecs))

    total = sum(m + 1 for m, _ in strings)
    if total != dim:
        raise ArithmeticError(f"string count {total} does not fill dimension {dim}")

    # change of basis per weight value: one row per string vector, holding
    # it over the basis ids, its image under the modified raising operator
    # at dim + id and its image under the lowering one at 2 dim + id.  With
    # S, E, F those vectors as columns, the reduced form is
    # [I | (E S^-1)^T | (F S^-1)^T]: row c holds column c of both operators.
    by_weight = {}
    for m, vecs in strings:
        for r, vec in enumerate(vecs):
            row = dict(vec)
            if r >= 1:
                row.update((dim + k, v) for k, v in vecs[r - 1].items())
            if r < m:
                row.update((2 * dim + k, v) for k, v in vecs[r + 1].items())
            by_weight.setdefault(m - 2 * r, []).append(row)
    et = SparseOperator(dim)
    ft = SparseOperator(dim)
    for lam, rows in by_weight.items():
        idxs = buckets[lam]
        if len(rows) != len(idxs):
            raise ArithmeticError("weight space dimension mismatch")
        red = _solve(rows, idxs)
        for c in idxs:
            for k, v in red[c].items():
                if k >= 2 * dim:
                    ft.entries[(k - 2 * dim, c)] = v
                elif k >= dim:
                    et.entries[(k - dim, c)] = v
    return et, ft


def crystal_match(rep: Representation, indices=None):
    """Specialize the modified operators at qs = 0 and compare adjacency."""
    t = rep.type
    checks = []
    signs = {}
    for i in (range(t.n + 1) if indices is None else indices):
        et, ft = kashiwara_operators(rep, i)
        rule = crys.rules(t)[i]
        for name, op, step in ((f"e~({i})", et, crys.step_e),
                               (f"f~({i})", ft, crys.step_f)):
            regular = all(v.is_regular for v in op.entries.values())
            checks.append(Check(f"{name} lattice-regular", regular))
            if not regular:
                continue
            reduced = {}
            for (r, c), v in op.entries.items():
                val = v.eval_at_zero()
                if val:
                    reduced[(r, c)] = val
            adjacency = {}
            for x in range(rep.dim):
                y = step(rule, x)
                if y is not None:
                    adjacency[(y, x)] = 1
            same = set(reduced) == set(adjacency) and \
                all(abs(v) == 1 for v in reduced.values())
            checks.append(Check(f"{name} matches the crystal adjacency", same))
            cols = {}
            for (r, c), v in reduced.items():
                cols[c] = cols.get(c, 0) + 1
            checks.append(Check(f"{name} single-valued columns",
                                all(v == 1 for v in cols.values())))
            signs[name] = {rc: (1 if v > 0 else -1) for rc, v in reduced.items()}
    return checks, signs


# -- highest vectors and the null-root shift -----------------------------------


def highest_vectors(rep: Representation, weight_vec):
    """Exact basis of the joint kernel of the classical raising operators.

    Computed once per weight and kept on ``rep``; callers must not mutate
    the returned vectors.
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
    out = rep.highest[weight_vec] = _kernel(rows.values(), idxs), idxs
    return out


def _highest_crystal_ids(rep: Representation, weight_vec):
    rs = crys.rules(rep.type)
    return [x for x in range(rep.dim)
            if rep.weights[x] == tuple(weight_vec)
            and crys.is_classically_highest(rs, x)]


def normalized_highest_vector(rep: Representation, k: int, l: int):
    """The classical highest vector with unit coefficient on its leading term.

    Normalized so the coefficient at the canonical (k, l) basis state is 1
    and the coefficients at all other classically-highest states are 0;
    checks that the remainder lies in qs times the lattice.
    """
    t = rep.type
    target = crys.v_kl(t, k, l)
    wvec = fundamental_weight_cl(t, k)
    kernel, _ = highest_vectors(rep, wvec)
    ids = _highest_crystal_ids(rep, wvec)
    if target not in ids:
        raise ValueError(f"({k},{l}) does not index a classically-highest state")
    if len(kernel) != len(ids):
        raise ArithmeticError(
            f"kernel dimension {len(kernel)} differs from crystal count {len(ids)}")
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


def apply_extremal_word(rep: Representation, vec: dict, elem, word):
    """Divided-power word application tracking the crystal element.

    The divided power x^(k) = x^k / [k]_i! applies the integer power, then
    scales the rational vector by 1/[k]_i!.
    """
    t = rep.type
    for i in word:
        m = crys.weight(t, elem)[i]
        by_col = _columns(rep, "f" if m >= 0 else "e", i)
        for _ in range(abs(m)):
            vec = _apply_columns(by_col, vec)
        inv = rational(qfactorial(abs(m), rep.cd.qi_exp[i])).inverse()
        vec = {idx: v * inv for idx, v in vec.items()}
        elem = crys.weyl_reflection(t, i, elem)
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
