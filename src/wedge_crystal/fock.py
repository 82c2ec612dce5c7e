"""Exact symbolic layer: deformed fermion operators and module checks.

Basis states of the single wedge space are bit masks over the barred
alphabet (bit n-j holds row j-bar, matching the crystal ids); the doubled
space indexes pairs of masks, low bits first.  Creation and annihilation
carry the usual fermionic phase over the lower bits; the diagonal gauge
operators carry the deformation parameter of the middle nodes.

On top of the raw operators the module builds the full generator family
for any of the seven labelings, checks the defining relations, the weights
and the bilinear-form compatibility exactly, extracts the modified root
operators block by block, and compares their specialization at qs = 0 with
the combinatorial crystal.

Every generator is built once in factored form (``Factored``, collected in
``Factors``): a sum of terms (M, P, L), where L is a local matrix on the
bits of the support M, at most 4 of them, and every other bit x contributes
only the sign character (-1)^popcount(x & P), with P disjoint from M.
``psi`` creates at one bit with the phase over the lower bits as its
character, ``omega`` is diagonal in one bit, ``parity`` is a pure character
and ``kron`` puts the second copy's bits above the first's, so every step of
the construction stays factored.  The product of two terms is one term: an
entry (r_A, c_A) meets (r_B, c_B) when c_A and r_B agree on M_A & M_B, lands
at (r_A | r_B & ~M_A, c_B | c_A & ~M_B) with the sign (-1)^(|r_B & P_A| +
|c_A & P_B|), and the result has support M_A | M_B and character
(P_A ^ P_B) & ~(M_A | M_B).

The relation, weight and polarization checks read the factors alone, at
any rank.  Distinct characters of the bits outside U, the union of the
supports of a sum, are linearly independent over Z[qs^±1], so a sum vanishes
exactly when, for each such character, its terms extended to U vanish
(``_compare``); the cost of a check does not depend on n.  A failed check's
witness is the least differing global entry, with both sides there.  When
t_i and t_i^-1 are single diagonal terms with one-term entries,
t_i x t_i^-1 = qs^k x is decided on each local entry of x as one integer
test, without a product: that is exact because Z[qs^±1] is an integral
domain; a failed test falls back to the product and ``_compare``.  Likewise
two generators whose terms have pairwise disjoint supports commute term by
term when one parity test on the local entries and characters holds
(``_commute_termwise``); that decides [e_i, f_j] = 0 for i != j and the
Serre sum x_j x_i - x_i x_j of a_ij = 0 without a product, and a failed test
falls back to the products.  The other Serre sums are built without identity
factors.  The crystal weights come from the rule tables per submask.

Every other group reads the factors too.  The crystal match, the highest
vectors and the null-root shift need the columns of e_i and f_i and the
i-weights, id by id.  A global column x of a generator is the sum, over its
terms (M, P, L) with local entries in column x & M, of those entries at the
rows r | (x & ~M), with the sign (-1)^popcount(x & P) (``_column``, which
scans the terms' local entries: no generator of a labeling has more than 5);
the i-weights come from the rule tables per submask.  No global matrix and
no list of all weights is built.  Every generator entry is a signed
monomial in qs, so generator entries are integer Laurent polynomials
(``laurent`` dicts, Z[qs^±1]).  Only the extraction of modified root
operators and highest vectors works in Q(qs): it converts a generator's
entries with ``laurent.rational`` where they enter a linear system or
multiply a rational vector.  Every linear system there is solved by one
sparse row reduction over Q(qs) (``_rref``), fed with the nonzero entries
only.

The modified root operators of node i come from the blocks of the module:
the cosets of K, the bits that e_i and f_i change (the union of r ^ c over
their local entries, which every global entry shares).  Each coset is
closed under e_i and f_i by construction, and t_i is diagonal, so each
block is a U_q(sl_2)_i-submodule, and Kashiwara's operators act on the
blocks separately.  Most blocks are alike.  With U the union of the
supports of e_i's and f_i's terms and of rule i's mask, take two ids that
agree on U & ~K and have the same parity against every term character
outside U: they differ by some d outside U on which every character is
even, and y -> y ^ d maps one coset onto the other keeping entries, signs,
i-weights and crystal steps.  So one block per class (``_classes``: a
submask of U & ~K with a parity vector the spectators reach, at most 4 per
node on every labeling) gets the kernel, string and change-of-basis steps,
and the crystal match compares each with the step tables on its members:
it solves O(n) blocks of at most 16 ids.  The highest vectors need joint
kernels over i = 1..n, which no block of one i contains, so they reduce
whole weight spaces: the ids of a weight are generated from the rule
tables (``crystal.weight_space``), and yield both that kernel and the
crystal's classically-highest ids of the weight, kept together
(``WeightSpace``).  So no group visits the 2^n or 4^n states: the weight
space of cl(varpi_k) holds 2^(n-k) ids on the matrix labelings, and every
group at n = 13 takes 3.6-4.7 s and peaks under 40 MiB per matrix labeling
(a fresh interpreter on a 2-core host), most of it the row reductions.
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


# -- factored operators --------------------------------------------------------


def _neg(v: dict) -> dict:
    return {e: -s for e, s in v.items()}


def _accumulate(acc: dict, key, v: dict):
    """acc[key] += v, with a zero sum removed."""
    if key in acc:
        s = padd(acc[key], v)
        if s:
            acc[key] = s
        else:
            del acc[key]
    else:
        acc[key] = v


def _spectators(free: int, char: int) -> list:
    """(s, odd) for every submask s of ``free`` in ascending order, with odd
    the parity of popcount(s & char)."""
    out = [(0, 0)]
    s = (-free) & free
    while s:
        out.append((s, (s & char).bit_count() & 1))
        s = (s - free) & free
    return out


class Factored:
    """A sum of factored terms acting on the states of ``bits`` bits.

    ``terms`` maps (M, P) to L, a dict {(r, c): nonzero Z[qs^±1] entry}
    over submasks r, c of M.  The term's global entry at (r | s, c | s), for
    every s outside M, is L[r, c] (-1)^popcount(s & P); every other global
    entry is 0.  Terms of one (M, P) are merged, and no L is empty.  ``==``
    compares the terms; ``_compare`` decides whether the matrices agree.
    """

    __slots__ = ("bits", "terms")

    def __init__(self, bits: int, terms=None):
        self.bits = bits
        self.terms = {k: local for k, local in terms.items() if local} if terms else {}

    @classmethod
    def identity(cls, bits: int) -> "Factored":
        return cls(bits, {(0, 0): {(0, 0): {0: 1}}})

    def scale(self, p: dict) -> "Factored":
        return Factored(self.bits, {k: {rc: pmul(v, p) for rc, v in local.items()}
                                    for k, local in self.terms.items()})

    def __add__(self, other: "Factored") -> "Factored":
        terms = {k: dict(local) for k, local in self.terms.items()}
        for k, local in other.terms.items():
            acc = terms.setdefault(k, {})
            for rc, v in local.items():
                _accumulate(acc, rc, v)
        return Factored(self.bits, terms)

    def __neg__(self) -> "Factored":
        return Factored(self.bits, {k: {rc: _neg(v) for rc, v in local.items()}
                                    for k, local in self.terms.items()})

    def __sub__(self, other: "Factored") -> "Factored":
        return self + (-other)

    def __matmul__(self, other: "Factored") -> "Factored":
        terms = {}
        for (ma, pa), la in self.terms.items():
            for (mb, pb), lb in other.terms.items():
                both = ma & mb
                by_row = {}  # right entries by their row on the shared bits
                for (rb, cb), vb in lb.items():
                    by_row.setdefault(rb & both, []).append((rb, cb, vb))
                m = ma | mb
                acc = terms.setdefault((m, (pa ^ pb) & ~m), {})
                for (ra, ca), va in la.items():
                    for rb, cb, vb in by_row.get(ca & both, ()):
                        p = pmul(va, vb)
                        if ((rb & pa).bit_count() + (ca & pb).bit_count()) & 1:
                            p = _neg(p)
                        _accumulate(acc, (ra | rb & ~ma, cb | ca & ~mb), p)
        return Factored(self.bits, terms)

    def transpose(self) -> "Factored":
        return Factored(self.bits, {k: {(c, r): v for (r, c), v in local.items()}
                                    for k, local in self.terms.items()})

    def is_diagonal(self) -> bool:
        return all(r == c for local in self.terms.values() for r, c in local)

    def entry(self, row: int, col: int) -> dict:
        """The global entry at (row, col)."""
        return _column(self, col).get(row, {})

    def __eq__(self, other):
        return isinstance(other, Factored) and self.bits == other.bits \
            and self.terms == other.terms

    def __repr__(self):
        return f"Factored(bits={self.bits}, terms={len(self.terms)})"


def kron(low: Factored, high: Factored) -> Factored:
    """Tensor product; the first factor owns the low index bits."""
    k = low.bits
    return Factored(k + high.bits, {
        (m1 | m2 << k, p1 | p2 << k): {(r1 | r2 << k, c1 | c2 << k): pmul(v1, v2)
                                       for (r1, c1), v1 in l1.items()
                                       for (r2, c2), v2 in l2.items()}
        for (m1, p1), l1 in low.terms.items() for (m2, p2), l2 in high.terms.items()})


def _least_spectator(coeffs: dict) -> int:
    """The least s with sum over chi of coeffs[chi] (-1)^popcount(s & chi)
    nonzero, for a nonzero such sum of distinct characters chi.

    Only the bits of the characters matter.  On the s made of their lowest
    j bits the sum vanishes exactly when the coefficients of each restricted
    character sum to 0.  If it does not vanish at s = 0, the least s is 0.
    Otherwise its top bit b is the j-th lowest for the least j at which the
    sum does not vanish, and the rest of s is the least s for the sum
    shifted by b, over the bits below b.
    """
    union = 0
    for chi in coeffs:
        union |= chi
    bits = []
    while union:
        bits.append(union & -union)
        union &= union - 1
    s = 0
    while True:
        low = 0
        for j in range(len(bits) + 1):
            if j:
                low |= bits[j - 1]
            sums = {}
            for chi, v in coeffs.items():
                sums[chi & low] = padd(sums.get(chi & low, {}), v)
            if any(sums.values()):
                break
        if not j:
            return s
        top = bits[j - 1]
        s |= top
        coeffs = {chi: _neg(v) if chi & top else v for chi, v in coeffs.items()}
        del bits[j - 1:]


# -- fermionic generators ------------------------------------------------------


def _bit(n: int, j: int) -> int:
    return n - j


def psi(n: int, j: int) -> Factored:
    """Creation at row j-bar with the fermionic phase over lower bits."""
    b = 1 << _bit(n, j)
    return Factored(n, {(b, b - 1): {(b, 0): {0: 1}}})


def psi_star(n: int, j: int) -> Factored:
    """Annihilation at row j-bar, adjoint phase convention."""
    b = 1 << _bit(n, j)
    return Factored(n, {(b, b - 1): {(0, b): {0: 1}}})


def omega(n: int, j: int, unit: int, power: int = 1) -> Factored:
    """Diagonal gauge operator: qs^(unit*power*(m_j - 1)) on each state."""
    b = 1 << _bit(n, j)
    return Factored(n, {(b, 0): {(0, 0): {-unit * power: 1}, (b, b): {0: 1}}})


def parity(n: int) -> Factored:
    """Fermion parity (-1)^(occupation count), the Klein twist factor."""
    return Factored(n, {(0, (1 << n) - 1): {(0, 0): {0: 1}}})


class Check:
    """One named statement and its verdict; equal when all three fields are."""

    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: str | None = None):
        self.name = name
        self.ok = ok
        self.witness = witness  # the least differing entry of a failed identity

    def __eq__(self, other):
        if other.__class__ is not Check:
            return NotImplemented
        return (self.name, self.ok, self.witness) == (other.name, other.ok, other.witness)


def _compare(name: str, lhs: Factored, rhs: Factored) -> Check:
    """The identity lhs = rhs, decided per character of the bits outside the
    union U of the supports; a failure names its least differing global
    entry and both sides there."""
    if lhs.terms == rhs.terms:
        return Check(name, True)
    diff = lhs - rhs
    union = 0
    for m, _ in diff.terms:
        union |= m
    by_char = {}  # character outside U -> {(r, c) on U: entry}
    for (m, p), local in diff.terms.items():
        acc = by_char.setdefault(p & ~union, {})
        spect = _spectators(union & ~m, p)
        for (r, c), v in local.items():
            signed = (v, _neg(v))
            for s, odd in spect:
                _accumulate(acc, (r | s, c | s), signed[odd])
    by_entry = {}  # (r, c) on U -> {character: entry}
    for chi, acc in by_char.items():
        for rc, v in acc.items():
            by_entry.setdefault(rc, {})[chi] = v
    if not by_entry:
        return Check(name, True)

    def least(r, c, coeffs):
        s = _least_spectator(coeffs)
        return r | s, c | s

    rc = min(least(r, c, coeffs) for (r, c), coeffs in by_entry.items())
    return Check(name, False, f"entry {rc}: lhs {format_poly(lhs.entry(*rc))}, "
                              f"rhs {format_poly(rhs.entry(*rc))}")


# -- the generator family ------------------------------------------------------


class Factors:
    """The generators of one labeling as ``Factored`` sums on ``bits`` bits:
    n on the wedge space, 2n on its square."""

    __slots__ = ("type", "cd", "bits", "e", "f", "t", "tinv", "highest")

    def __init__(self, type: AffineType, cd: CartanData, bits: int, e: dict, f: dict,
                 t: dict, tinv: dict):
        self.type = type
        self.cd = cd
        self.bits = bits
        self.e = e
        self.f = f
        self.t = t
        self.tinv = tinv
        # weight -> its WeightSpace, filled on first use by highest_vectors
        self.highest = {}


def _column(op: Factored, x: int) -> dict:
    """Global column x of ``op`` ({row: Z[qs^±1] entry}): each term (M, P, L)
    puts its local entries (r, x & M) at row r | s, s = x & ~M, with the
    sign (-1)^popcount(s & P)."""
    out = {}
    for (m, p), local in op.terms.items():
        c, s = x & m, x & ~m
        odd = (s & p).bit_count() & 1
        for (r, cc), v in local.items():
            if cc == c:
                _accumulate(out, r | s, _neg(v) if odd else v)
    return out


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


def factors(t: AffineType) -> Factors:
    """The generators realizing the labeling, in factored form."""
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
    bits = n
    if t.doubled:
        ident = Factored.identity(n)
        squared = {i for i, shape in zip((0, n), t.diamond) if shape == DOUBLE}
        for i in range(n + 1):
            if i not in squared:
                e1, f1, t1, ti1 = ops[i]
                ops[i] = (kron(e1, ti1) + kron(ident, e1), kron(f1, ident) + kron(t1, f1),
                          kron(t1, t1), kron(ti1, ti1))
        bits *= 2
    e, f, tt, tinv = ({i: ops[i][k] for i in range(n + 1)} for k in range(4))
    return Factors(type=t, cd=cd, bits=bits, e=e, f=f, t=tt, tinv=tinv)


# -- relation, weight and polarization suites, on the factors -----------------


def _monomial_diagonal(op: Factored):
    """(M, {local state: (exponent, coefficient)}) when ``op`` is one
    diagonal term without character and with a one-term entry on every
    local state, else None."""
    if len(op.terms) != 1:
        return None
    ((m, p), local), = op.terms.items()
    if p or len(local) != 1 << m.bit_count():
        return None
    values = {}
    for (r, c), v in local.items():
        if r != c or len(v) != 1:
            return None
        (values[r],) = v.items()
    return m, values


def _conjugates_to(d, dinv, x: Factored, k: int) -> bool:
    """d x dinv = qs^k x for one-term diagonals d, dinv, decided per local
    entry of x and state of the bits of d and dinv outside its support:
    d[r] x[r, c] dinv[c] = qs^k x[r, c] exactly when the exponents of d[r]
    and dinv[c] sum to k and their coefficients multiply to 1, since x[r, c]
    is nonzero and Z[qs^±1] has no zero divisors.  True proves the
    identity; False may come from entries that cancel across terms."""
    (dm, dv), (im, iv) = d, dinv
    for (m, _), local in x.terms.items():
        spect = _spectators((dm | im) & ~m, 0)
        for r, c in local:
            for s, _ in spect:
                (de, ds), (ie, is_) = dv[(r | s) & dm], iv[(c | s) & im]
                if de + ie != k or ds * is_ != 1:
                    return False
    return True


def _commute_termwise(x: Factored, y: Factored) -> bool:
    """True only when x y = y x term by term: every term a of x and b of y
    have disjoint supports, and a b and b a have one sign.

    With M_a & M_b = 0, a b and b a have the same support, character, local
    positions and values; their signs are (-1)^(|r_b & P_a| + |c_a & P_b|)
    and (-1)^(|r_a & P_b| + |c_b & P_a|).  They agree for every pair of
    local entries exactly when popcount((r_a ^ c_a) & P_b) over a's entries
    and popcount((r_b ^ c_b) & P_a) over b's entries all have one parity.
    False may come from a pair that commutes only after a sum."""
    for (ma, pa), la in x.terms.items():
        for (mb, pb), lb in y.terms.items():
            if ma & mb:
                return False
            odd = {((r ^ c) & pb).bit_count() & 1 for r, c in la}
            odd.update(((r ^ c) & pa).bit_count() & 1 for r, c in lb)
            if len(odd) != 1:
                return False
    return True


def _serre(xi: Factored, xj: Factored, m: int, unit: int) -> Factored:
    """sum_k (-1)^k [m choose k] x_i^k x_j x_i^(m-k), with no identity
    factor and no scale by the binomials [m choose 0] = [m choose m] = 1."""
    right = [xj]  # x_j x_i^r
    for _ in range(m):
        right.append(right[-1] @ xi)
    total, power = right[m], xi  # the term k = 0; x_i^k for k = 1
    for k in range(1, m + 1):
        term = power @ right[m - k]
        if k < m:
            term = term.scale(qbinomial(m, k, unit))
            power = power @ xi
        total = total + term if k % 2 == 0 else total - term
    return total


def verify_relations(fac: Factors):
    """Every defining relation, checked as an exact identity of factors.

    Denominators are cleared, so every check stays in Z[qs^±1]: the string
    identity reads (q_i - q_i^-1)[e_i, f_i] = t_i - t_i^-1, and the Serre
    relation sum_k (-1)^k [m choose k]_i x_i^k x_j x_i^(m-k) = 0 for x = e, f
    and m = 1 - a_ij.

    When t_i and t_i^-1 are one-term diagonals, t_i t_i^-1 = 1 and the gauge
    identities are decided entrywise (``_conjugates_to``), and two diagonal
    t's commute.  Otherwise, and for every entrywise failure, both sides are
    built as products and ``_compare`` names the witness.
    """
    idx = range(fac.type.n + 1)
    ident = Factored.identity(fac.bits)
    zero = Factored(fac.bits)
    a, qe = fac.cd.a, fac.cd.qi_exp
    t, tinv = fac.t, fac.tinv
    mono = {i: (_monomial_diagonal(t[i]), _monomial_diagonal(tinv[i])) for i in idx}

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
            checks.append(conjugation(f"t({i}) e({j}) gauge", i, fac.e[j], qe[i] * a[i][j]))
            checks.append(conjugation(f"t({i}) f({j}) gauge", i, fac.f[j], -qe[i] * a[i][j]))
    for i in idx:
        for j in idx:
            e, f = fac.e[i], fac.f[j]
            if i == j:
                checks.append(_compare(f"[e({i}), f({i})] string identity",
                                       (e @ f - f @ e).scale({qe[i]: 1, -qe[i]: -1}),
                                       t[i] - tinv[i]))
            elif _commute_termwise(e, f):
                checks.append(Check(f"[e({i}), f({j})] = 0", True))
            else:
                checks.append(_compare(f"[e({i}), f({j})] = 0", e @ f, f @ e))
    for i in idx:
        for j in idx:
            if j != i:
                for x, ops in (("e", fac.e), ("f", fac.f)):
                    name = f"serre {x}({i},{j})"
                    # with a_ij = 0 the sum is x_j x_i - x_i x_j
                    if a[i][j] == 0 and _commute_termwise(ops[i], ops[j]):
                        checks.append(Check(name, True))
                    else:
                        checks.append(_compare(name, _serre(ops[i], ops[j], 1 - a[i][j],
                                                            qe[i]), zero))
    return checks


def verify_weight_compatibility(fac: Factors):
    """Diagonal gauge eigenvalues match the crystal weights exactly: t_i is
    compared with qs^(q_i-exponent * w_i) on the submasks of rule i."""
    qe = fac.cd.qi_exp
    return [_compare(f"t({i}) eigenvalues match weights", fac.t[i],
                     Factored(fac.bits, {(mask, 0): {(s, s): {qe[i] * w: 1}
                                                     for s, w in table.items()}}))
            for i, (mask, table) in enumerate(crys.rules(fac.type).weights)]


def verify_polarization(fac: Factors):
    """Transpose against the twisted antiautomorphism, entry by entry."""
    checks = []
    for i in range(fac.type.n + 1):
        qinv = {-fac.cd.qi_exp[i]: 1}
        checks.append(_compare(f"polarization e({i})", fac.e[i].transpose(),
                               (fac.tinv[i] @ fac.f[i]).scale(qinv)))
        checks.append(_compare(f"polarization f({i})", fac.f[i].transpose(),
                               (fac.t[i] @ fac.e[i]).scale(qinv)))
        checks.append(_compare(f"polarization t({i})", fac.t[i].transpose(), fac.t[i]))
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


def _classes(fac: Factors, i: int):
    """(mask, bases): the bits that e_i and f_i change, and one base id per
    class of their cosets, with no bit of ``mask`` set.

    With U the union of the supports of e_i's and f_i's terms and of rule
    i's step mask (which is also its weight mask), a class is a submask of
    U & ~mask together with a parity vector of the terms' characters outside
    U that some spectator reaches.  The spectators are found one per vector
    by adding the bits one at a time: a bit outside the characters' union
    reaches no new vector.
    """
    mask = union = 0
    chars = set()
    for op in (fac.e[i], fac.f[i]):
        for (m, p), local in op.terms.items():
            union |= m
            chars.add(p)
            for r, c in local:
                mask |= r ^ c
    union |= crys.rules(fac.type).weights[i][0]
    chars = [p & ~union for p in chars]
    spect = {0: 0}  # parity vector of the characters -> a spectator reaching it
    for b in (1 << k for k in range(fac.bits)):
        flips = sum(1 << k for k, p in enumerate(chars) if p & b)
        for vec, s in list(spect.items()):
            spect.setdefault(vec ^ flips, s | b)
    return mask, [sub | s for sub, _ in _spectators(union & ~mask, 0)
                  for s in spect.values()]


def kashiwara_operators(fac: Factors, i: int):
    """[(members, raising, lowering)]: Kashiwara's modified root operators of
    node i on one block per class of blocks, the operators as {(row, col):
    Q(qs) entry} numbered in the order of the ascending members.

    An entry (r, c) of e_i or f_i changes only the bits of r ^ c, the same
    for a local entry and each of its global copies, so with ``mask`` the
    union of those bits over the local entries, each coset of ``mask`` (a
    block) is closed under e_i, f_i and the diagonal t_i.  It spans a
    U_q(sl_2)_i-submodule, and Kashiwara's operators act on each block
    separately.  Two blocks of one class (``_classes``) differ by a shift
    y -> y ^ d with d outside U, the supports of the terms and the rule's
    mask, and even on every character, which keeps their entries, signs,
    i-weights and crystal steps; so the class's base block stands for all
    of them.
    """
    mask, bases = _classes(fac, i)
    inside = [s for s, _ in _spectators(mask, 0)]
    weights = crys.rules(fac.type).weights[i]
    ops = {"e": fac.e[i], "f": fac.f[i]}
    out = []
    for base in bases:
        members = [base | s for s in inside]
        out.append((members, *_block_operators(members, weights,
                                               lambda kind, x: _column(ops[kind], x),
                                               i, fac.cd.qi_exp[i])))
    return out


def _block_operators(members, weights, column, i: int, unit: int):
    """Kashiwara's operators of node i on one block by exact elimination:
    ({(row, col): e~ entry}, {(row, col): f~ entry}), numbered in the order
    of ``members``, the block's ids in ascending order.

    ``weights`` is a weight table (mask, table) of the i-weights, and
    ``column(kind, x)`` the column x of e_i ("e") or f_i ("f"), every row in
    the block.  An entry that does not raise (e_i) or lower (f_i) the
    i-weight by 2 is an error.  The strings start at a basis of the kernel
    of e_i on each weight space of weight m >= 0 and run through the
    divided powers f^(r), r = 0..m; a change of basis per weight space then
    reads off both operators.  The strings must fill the block.
    """
    wmask, table = weights
    size = len(members)
    local = {x: k for k, x in enumerate(members)}
    w = [table[x & wmask] for x in members]
    e_rat, f_rat, buckets = {}, {}, {}
    for cols, kind, step, name in ((e_rat, "e", 2, "raising"), (f_rat, "f", -2, "lowering")):
        for c, x in enumerate(members):
            for r, v in column(kind, x).items():
                r = local[r]
                if w[r] != w[c] + step:
                    raise ArithmeticError(f"{name} operator {i} is not weight-homogeneous")
                cols.setdefault(c, []).append((r, rational(v)))
    for x, wt in enumerate(w):
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
    count = sum(m + 1 for m, _ in strings)
    if count != size:
        raise ArithmeticError(f"string count {count} does not fill dimension {size}")
    return et, ft


def crystal_match(fac: Factors):
    """Specialize the modified operators at qs = 0 and compare adjacency
    with the step tables of the crystal's rules, on one block per class."""
    checks = []
    for i, rule in enumerate(crys.rules(fac.type)):
        blocks = kashiwara_operators(fac, i)
        mask, f, e = crys.steps(rule)
        for name, k, table in ((f"e~({i})", 1, e), (f"f~({i})", 2, f)):
            regular = all(v.is_regular for block in blocks for v in block[k].values())
            checks.append(Check(f"{name} lattice-regular", regular))
            if not regular:
                continue
            same = single = True
            for block in blocks:
                members = block[0]
                reduced = {}
                for (r, c), v in block[k].items():
                    val = v.eval_at_zero()
                    if val:
                        reduced[members[r], members[c]] = val
                adjacency = {(x ^ table[x & mask], x) for x in members if table[x & mask]}
                same = same and set(reduced) == adjacency and \
                    all(abs(v) == 1 for v in reduced.values())
                cols = [c for _, c in reduced]
                single = single and len(cols) == len(set(cols))
            checks.append(Check(f"{name} matches the crystal adjacency", same))
            checks.append(Check(f"{name} single-valued columns", single))
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


def highest_vectors(fac: Factors, weight_vec) -> WeightSpace:
    """The :class:`WeightSpace` of ``weight_vec``: its ids
    (``crystal.weight_space``, generated from the rule tables), and the
    columns of e_1..e_n there.

    Computed once per weight and kept in ``fac.highest``; callers must not
    mutate it or its vectors.
    """
    weight_vec = tuple(weight_vec)
    if weight_vec in fac.highest:
        return fac.highest[weight_vec]
    rs = crys.rules(fac.type)
    idxs = crys.weight_space(rs, weight_vec)
    rows = {}
    for i in range(1, fac.type.n + 1):
        for c in idxs:
            for r, v in _column(fac.e[i], c).items():
                rows.setdefault((i, r), {})[c] = rational(v)
    space = fac.highest[weight_vec] = WeightSpace(_kernel(rows.values(), idxs),
                                                  classically_highest(rs, idxs))
    return space


def normalized_highest_vector(fac: Factors, k: int, l: int):
    """The classical highest vector with unit coefficient on its leading term.

    Normalized so the coefficient at the canonical (k, l) basis state is 1
    and the coefficients at all other classically-highest states are 0;
    checks that the remainder lies in qs times the lattice.  When (k, l)
    is not classically highest, or the kernel and the crystal count differ,
    there is nothing to normalize: the vector is empty and the check fails.
    """
    t = fac.type
    target = crys.v_kl(t, k, l)
    kernel = highest_vectors(fac, fundamental_weight_cl(t, k))
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


def verify_highest(fac: Factors):
    """Per component (k, l) of a matrix type: the classical highest vectors
    at its weight are as many as the crystal's classically-highest states,
    and the normalized highest vector at (k, l) exists.  A failed count
    names both sides."""
    t = fac.type
    checks = []
    for (k, l) in h_diamond(t):
        space = highest_vectors(fac, fundamental_weight_cl(t, k))
        same = len(space) == len(space.ids)
        witness = None if same else \
            f"kernel dimension {len(space)}, crystal count {len(space.ids)}"
        checks.append(Check(f"highest-vector count at weight index {k}", same, witness))
        _, ok, _ = normalized_highest_vector(fac, k, l)
        checks.append(Check(f"normalized highest vector ({k},{l})", ok))
    return checks


def apply_extremal_word(fac: Factors, vec: dict, elem, word):
    """Divided-power word application tracking the crystal element.

    The divided power x^(k) = x^k / [k]_i! applies the integer power, then
    scales the rational vector by 1/[k]_i!.
    """
    rs = crys.rules(fac.type)
    for i in word:
        mask, table = rs.weights[i]
        m = table[elem & mask]
        op = (fac.f if m >= 0 else fac.e)[i]
        for _ in range(abs(m)):
            vec = _apply_columns({c: [(r, rational(v)) for r, v in _column(op, c).items()]
                                  for c in vec}, vec)
        inv = rational(qfactorial(abs(m), fac.cd.qi_exp[i])).inverse()
        vec = {idx: v * inv for idx, v in vec.items()}
        elem = crys.weyl_reflection(fac.type, i, elem)
    return vec, elem


def verify_null_shift(fac: Factors):
    """Leading-coefficient behavior of the shift word on highest vectors.

    For each middle k the word is applied by divided powers to the
    normalized highest vector; the image must have coefficient +-1 on the
    partner state (the sign is an artifact of the operator ordering
    conventions) and a remainder in qs times the lattice.  When the highest
    weight space is two-dimensional the word must swap the two normalized
    vectors exactly, with one common sign: the two sign combinations are
    then exact eigenvectors with eigenvalues +1 and -1.
    """
    t = fac.type
    if t.diamond != (FORK, DOUBLE):
        raise ValueError("null-root shift check needs the fork-plus-double type")
    n = t.n
    checks = []
    minus_one = -_ONE
    for k in range(1, n):
        word = crys.delta_word(t, k)
        va_el = crys.v_kl(t, k, n - k)
        vb_el = crys.v_kl(t, k, n - k - 1)
        va, ok_a, dim_a = normalized_highest_vector(fac, k, n - k)
        vb, ok_b, _ = normalized_highest_vector(fac, k, n - k - 1)
        checks.append(Check(f"k={k} highest vector ({k},{n-k}) congruent", ok_a))
        checks.append(Check(f"k={k} highest vector ({k},{n-k-1}) congruent", ok_b))
        img_a, end_a = apply_extremal_word(fac, va, va_el, word)
        img_b, end_b = apply_extremal_word(fac, vb, vb_el, word)
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

# check group -> (the functions that run it on the factors, in order; the
# type it needs), in the order of the CLI's flags, which run every applicable
# group by default
GROUPS = {
    "relations": (("verify_relations", "verify_weight_compatibility"), _ANY_TYPE),
    "polarization": (("verify_polarization",), _ANY_TYPE),
    "crystal_match": (("crystal_match",), _ANY_TYPE),
    "highest": (("verify_highest",), MATRIX_TYPE),
    "deltaword": (("verify_null_shift",), FORK_TYPE),
}
