"""Test oracle: the generator family and relation checks over Q(qs).

This is the rational formulation that ``wedge_crystal.fock`` used before
its generators and relation checks moved to integer Laurent entries: every
entry is a canonical ``RationalScalar``, the string identity divides by
q_i - q_i^-1 and the Serre relations use divided powers.  The tests compare
the integer formulation against it, entry for entry and verdict for verdict.

Next to its Clifford relation checks sit the same checks on the factored
integer operators of ``fock`` (``integer_clifford_relation_checks``), which
the package itself never runs.  The integer generators and their relation,
weight and polarization checks in global form follow: ``fock`` built and
checked whole 2^n- or 4^n-dimensional matrices (``GlobalOperator``, with
its one sparse product kernel ``_product``) before it factored them, and
the tests compare its factors and factored verdicts with them
(``global_representation``, ``GLOBAL_CHECKS``).  Last come the integer
relation checks in their all-products form (``integer_verify_relations``,
with the sparse kernel ``integer_product``), which the global checks
replaced by entrywise diagonal tests and Horner-form Serre sums.

It also keeps the dense Gauss-Jordan kernel and solver that ``fock`` used
before its sparse row reduction, which the tests compare with it on random
matrices, and the extraction of the modified root operators per whole
i-weight space (``kashiwara_operators_by_weight_space``) that ``fock`` used
before it worked block by block.

Its scalars are the Q(qs) arithmetic that ``wedge_crystal.laurent`` used
before the fraction field moved to pairs of integer Laurent dicts: Laurent
polynomials with ``Fraction`` coefficients (``LaurentScalar``) and their
quotients (``RationalScalar``), reduced by a ``Fraction`` Euclid and
normalised to a denominator with constant term 1.  The tests compare
``laurent.RationalScalar`` against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from wedge_crystal import crystal as crys
from wedge_crystal import fock
from wedge_crystal.cartan import AffineType, DOUBLE, FORK, SINGLE, CartanData, cartan_data, \
    fundamental_weight_cl
from wedge_crystal import laurent
from wedge_crystal.laurent import NotRegular, padd, pmul, qbinomial


# -- Q(qs) with Fraction coefficients -----------------------------------------

def _fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot use {v!r} as a rational coefficient")


class LaurentScalar:
    """Laurent polynomial in qs with Fraction coefficients.

    Stored sparsely as exponent -> coefficient; zero coefficients are
    never kept.  Values are immutable once constructed.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return cls()

    @classmethod
    def one(cls) -> "LaurentScalar":
        return cls({0: 1})

    @classmethod
    def const(cls, v) -> "LaurentScalar":
        return cls({0: v})

    @classmethod
    def qs(cls, exp: int = 1, coeff=1) -> "LaurentScalar":
        return cls({exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self):
        return sorted(self._c.items())

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, Fraction(0))

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no valuation")
        return min(self._c)

    def shifted(self, k: int) -> "LaurentScalar":
        return LaurentScalar({e + k: v for e, v in self._c.items()})

    def scaled(self, v) -> "LaurentScalar":
        v = _fraction(v)
        if not v:
            return LaurentScalar()
        return LaurentScalar({e: c * v for e, c in self._c.items()})

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, Fraction(0)) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = LaurentScalar.__new__(LaurentScalar)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentScalar.__new__(LaurentScalar)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_laurent(other) + (-self)

    def __mul__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._c or not other._c:
            return LaurentScalar()
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = c.get(e, Fraction(0)) + v1 * v2
                if s:
                    c[e] = s
                else:
                    del c[e]
        out = LaurentScalar.__new__(LaurentScalar)
        out._c = c
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalScalar":
        return RationalScalar(self, _as_laurent(other))

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, v in sorted(self._c.items()):
            if e == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}qs^{e}" if e != 1 else f"{head}qs")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _as_laurent(v):
    if isinstance(v, LaurentScalar):
        return v
    if isinstance(v, (int, Fraction)):
        return LaurentScalar.const(v)
    return NotImplemented


# -- polynomial helpers on valuation-zero dicts -------------------------------

def _poly_divmod(a: dict, b: dict):
    """Exact division with remainder in Q[qs]; dicts exponent -> Fraction."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = dict(a)
    q = {}
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        f = a[da] / lb
        q[da - db] = f
        for e, v in b.items():
            ee = e + da - db
            s = a.get(ee, Fraction(0)) - f * v
            if s:
                a[ee] = s
            else:
                a.pop(ee, None)
    return q, a


def _poly_gcd(a: dict, b: dict) -> dict:
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a:
        return {0: Fraction(1)}
    lead = a[max(a)]
    return {e: v / lead for e, v in a.items()}


class RationalScalar:
    """Element of the fraction field Q(qs), kept in canonical form.

    Canonical form: the denominator is a genuine polynomial with nonzero
    constant term normalized to 1, and numerator/denominator share no
    polynomial factor.  Equality of values is then equality of the stored
    pairs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_laurent(num)
        den = LaurentScalar.one() if den is None else _as_laurent(den)
        if den.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        if num.is_zero:
            self.num = LaurentScalar.zero()
            self.den = LaurentScalar.one()
            return
        # align the denominator to valuation zero
        vd = den.min_exp()
        if vd:
            num = num.shifted(-vd)
            den = den.shifted(-vd)
        vn = num.min_exp()
        g = _poly_gcd({e - vn: v for e, v in num._c.items()}, dict(den._c))
        if len(g) > 1 or 0 not in g:
            num_q, r = _poly_divmod({e - vn: v for e, v in num._c.items()}, g)
            assert not r
            den_q, r = _poly_divmod(dict(den._c), g)
            assert not r
            num = LaurentScalar(num_q).shifted(vn)
            den = LaurentScalar(den_q)
        c = den.coeff(den.min_exp())
        if c != 1:
            num = num.scaled(1 / c)
            den = den.scaled(1 / c)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(LaurentScalar.zero())

    @classmethod
    def one(cls):
        return cls(LaurentScalar.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalScalar(self.num + other.num, self.den)
        return RationalScalar(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalScalar.__new__(RationalScalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rational(other) + (-self)

    def __mul__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        return RationalScalar(self.num * other.den, self.den * other.num)

    def inverse(self):
        return RationalScalar.one() / self

    def __eq__(self, other):
        other = _as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    @property
    def is_regular(self) -> bool:
        """True when the value has no pole at qs = 0."""
        return self.is_zero or self.num.min_exp() >= 0

    def eval_at_zero(self) -> Fraction:
        if not self.is_regular:
            raise NotRegular(f"pole at qs = 0: {self}")
        return self.num.coeff(0)

    def __str__(self):
        if self.den == LaurentScalar.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _as_rational(v):
    if isinstance(v, RationalScalar):
        return v
    if isinstance(v, (int, Fraction, LaurentScalar)):
        return RationalScalar(v)
    return NotImplemented


def qint(k: int, unit: int = 1) -> LaurentScalar:
    """Quantum integer [k] in the variable qs^unit, as a Laurent polynomial."""
    if k < 0:
        return -qint(-k, unit)
    return LaurentScalar({unit * (k - 1 - 2 * j): 1 for j in range(k)})


def qfactorial(k: int, unit: int = 1) -> LaurentScalar:
    out = LaurentScalar.one()
    for s in range(1, k + 1):
        out = out * qint(s, unit)
    return out


def scalar(x) -> RationalScalar:
    """The oracle's value of a ``laurent.RationalScalar``."""
    return RationalScalar(LaurentScalar(x.num), LaurentScalar(x.den))


_ZERO = RationalScalar.zero()
_ONE = RationalScalar.one()


def _rq(v) -> RationalScalar:
    return v if isinstance(v, RationalScalar) else RationalScalar(v)


class SparseOperator:
    """Sparse exact matrix acting on column vectors indexed 0..dim-1."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                v = _rq(v)
                if not v.is_zero:
                    self.entries[(r, c)] = v

    @classmethod
    def identity(cls, dim: int) -> "SparseOperator":
        out = cls(dim)
        out.entries = {(i, i): _ONE for i in range(dim)}
        return out

    @classmethod
    def diagonal(cls, dim: int, values) -> "SparseOperator":
        out = cls(dim)
        for i, v in enumerate(values):
            v = _rq(v)
            if not v.is_zero:
                out.entries[(i, i)] = v
        return out

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, v) -> "SparseOperator":
        v = _rq(v)
        out = SparseOperator(self.dim)
        if v.is_zero:
            return out
        out.entries = {rc: val * v for rc, val in self.entries.items()}
        return out

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        out = SparseOperator(self.dim)
        e = dict(self.entries)
        for rc, v in other.entries.items():
            s = e.get(rc)
            s = v if s is None else s + v
            if s.is_zero:
                e.pop(rc, None)
            else:
                e[rc] = s
        out.entries = e
        return out

    def __neg__(self) -> "SparseOperator":
        out = SparseOperator(self.dim)
        out.entries = {rc: -v for rc, v in self.entries.items()}
        return out

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self + (-other)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        by_col = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        out = {}
        for (r2, c2), v2 in other.entries.items():
            for r1, v1 in by_col.get(r2, ()):
                key = (r1, c2)
                s = out.get(key)
                p = v1 * v2
                s = p if s is None else s + p
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        op = SparseOperator(self.dim)
        op.entries = out
        return op

    def power(self, k: int) -> "SparseOperator":
        out = SparseOperator.identity(self.dim)
        for _ in range(k):
            out = out @ self
        return out

    def transpose(self) -> "SparseOperator":
        out = SparseOperator(self.dim)
        out.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return out

    def apply(self, vec: dict) -> dict:
        return _apply_fast(self, vec)

    def __eq__(self, other):
        return isinstance(other, SparseOperator) and self.dim == other.dim \
            and self.entries == other.entries

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={len(self.entries)})"


def kron(low: SparseOperator, high: SparseOperator) -> SparseOperator:
    """Tensor product; the first factor owns the low index bits."""
    d = low.dim
    out = SparseOperator(d * high.dim)
    for (r1, c1), v1 in low.entries.items():
        for (r2, c2), v2 in high.entries.items():
            out.entries[(r1 + r2 * d, c1 + c2 * d)] = v1 * v2
    return out


def _apply_fast(op: SparseOperator, vec: dict) -> dict:
    by_col = {}
    for (r, c), v in op.entries.items():
        by_col.setdefault(c, []).append((r, v))
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
    out = SparseOperator(1 << n)
    for s in range(1 << n):
        if not (s >> b) & 1:
            out.entries[(s | (1 << b), s)] = _rq(_phase(s, b))
    return out


def psi_star(n: int, j: int) -> SparseOperator:
    """Annihilation at row j-bar, adjoint phase convention."""
    b = _bit(n, j)
    out = SparseOperator(1 << n)
    for s in range(1 << n):
        if (s >> b) & 1:
            out.entries[(s & ~(1 << b), s)] = _rq(_phase(s, b))
    return out


def omega(n: int, j: int, unit: int, power: int = 1) -> SparseOperator:
    """Diagonal gauge operator: qs^(unit*power*(m_j - 1)) on each state."""
    b = _bit(n, j)
    out = SparseOperator(1 << n)
    for s in range(1 << n):
        m = (s >> b) & 1
        out.entries[(s, s)] = _rq(LaurentScalar.qs(unit * power * (m - 1)))
    return out


def parity(n: int) -> SparseOperator:
    """Fermion parity (-1)^(occupation count), the Klein twist factor."""
    out = SparseOperator(1 << n)
    for s in range(1 << n):
        out.entries[(s, s)] = _rq(1 if bin(s).count("1") % 2 == 0 else -1)
    return out


def clifford_relation_checks(n: int, unit: int):
    """Exact checks of the generator relations on the 2^n-dimensional space."""
    checks = []
    dim = 1 << n
    q = LaurentScalar.qs(unit)
    qinv = LaurentScalar.qs(-unit)
    denom = RationalScalar(q - qinv)
    for a in range(1, n + 1):
        pa, psa = psi(n, a), psi_star(n, a)
        oa = omega(n, a, unit)
        oai = omega(n, a, unit, power=-1)
        checks.append((f"omega({a}) invertible", (oa @ oai) == SparseOperator.identity(dim)))
        lhs = pa @ psa
        rhs = (oa.scale(RationalScalar(q)) - oai.scale(RationalScalar(qinv))).scale(denom.inverse())
        checks.append((f"psi({a})psi*({a}) diagonal identity", lhs == rhs))
        lhs = psa @ pa
        rhs = (oa - oai).scale(-denom.inverse())
        checks.append((f"psi*({a})psi({a}) diagonal identity", lhs == rhs))
        for b in range(1, n + 1):
            pb, psb = psi(n, b), psi_star(n, b)
            checks.append((f"psi({a})psi({b}) anticommute",
                           (pa @ pb + pb @ pa).is_zero))
            checks.append((f"psi*({a})psi*({b}) anticommute",
                           (psa @ psb + psb @ psa).is_zero))
            if a != b:
                checks.append((f"psi({a})psi*({b}) anticommute",
                               (pa @ psb + psb @ pa).is_zero))
            ob = omega(n, b, unit)
            obi = omega(n, b, unit, power=-1)
            scale = RationalScalar(LaurentScalar.qs(unit if a == b else 0))
            checks.append((f"omega({b})psi({a}) gauge",
                           (ob @ pa @ obi) == pa.scale(scale)))
            checks.append((f"omega({b})psi*({a}) gauge",
                           (ob @ psa @ obi) == psa.scale(scale.inverse())))
    return checks


def integer_clifford_relation_checks(n: int, unit: int):
    """The same checks on ``fock``'s factored integer operators, as
    ``fock.Check``s.

    The diagonal identities are multiplied through by q - q^-1, so every
    check stays in Z[qs^±1].
    """
    checks = []
    ident, zero = fock.Factored.identity(n), fock.Factored(n)
    qdiff = {unit: 1, -unit: -1}
    compare = fock._compare
    for a in range(1, n + 1):
        pa, psa = fock.psi(n, a), fock.psi_star(n, a)
        oa = fock.omega(n, a, unit)
        oai = fock.omega(n, a, unit, power=-1)
        checks.append(compare(f"omega({a}) invertible", oa @ oai, ident))
        checks.append(compare(f"psi({a})psi*({a}) diagonal identity",
                              (pa @ psa).scale(qdiff),
                              oa.scale({unit: 1}) - oai.scale({-unit: 1})))
        checks.append(compare(f"psi*({a})psi({a}) diagonal identity",
                              (psa @ pa).scale(qdiff), oai - oa))
        for b in range(1, n + 1):
            pb, psb = fock.psi(n, b), fock.psi_star(n, b)
            checks.append(compare(f"psi({a})psi({b}) anticommute",
                                  pa @ pb + pb @ pa, zero))
            checks.append(compare(f"psi*({a})psi*({b}) anticommute",
                                  psa @ psb + psb @ psa, zero))
            if a != b:
                checks.append(compare(f"psi({a})psi*({b}) anticommute",
                                      pa @ psb + psb @ pa, zero))
            ob = fock.omega(n, b, unit)
            obi = fock.omega(n, b, unit, power=-1)
            shift = unit if a == b else 0
            checks.append(compare(f"omega({b})psi({a}) gauge",
                                  ob @ pa @ obi, pa.scale({shift: 1})))
            checks.append(compare(f"omega({b})psi*({a}) gauge",
                                  ob @ psa @ obi, psa.scale({-shift: 1})))
    return checks


# -- the generator family ------------------------------------------------------


@dataclass
class Representation:
    """Generator matrices for one labeling on the wedge space or its square."""

    type: AffineType
    cd: CartanData
    copies: int  # 1 or 2
    dim: int
    e: dict
    f: dict
    t: dict
    tinv: dict
    weights: list = field(repr=False)  # basis index (= crystal id) -> coroot pairings

    def q_i(self, i: int) -> LaurentScalar:
        return LaurentScalar.qs(self.cd.qi_exp[i])


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
    q0 = LaurentScalar.qs(cd.qi_exp[0])
    qn = LaurentScalar.qs(cd.qi_exp[n])
    if t.end0 == SINGLE:
        ops[0] = (psi(n, 1), psi_star(n, 1),
                  omega(n, 1, unit).scale(RationalScalar(q0)),
                  omega(n, 1, unit, power=-1).scale(RationalScalar(q0).inverse()))
    elif t.end0 == FORK:
        o = omega(n, 1, unit) @ omega(n, 2, unit)
        oi = omega(n, 1, unit, power=-1) @ omega(n, 2, unit, power=-1)
        ops[0] = (psi(n, 1) @ psi(n, 2), psi_star(n, 2) @ psi_star(n, 1),
                  o.scale(RationalScalar(q0)), oi.scale(RationalScalar(q0).inverse()))
    if t.end_n == SINGLE:
        ops[n] = (psi_star(n, n), psi(n, n),
                  omega(n, n, unit, power=-1).scale(RationalScalar(qn).inverse()),
                  omega(n, n, unit).scale(RationalScalar(qn)))
    elif t.end_n == FORK:
        o = omega(n, n, unit, power=-1) @ omega(n, n - 1, unit, power=-1)
        oi = omega(n, n, unit) @ omega(n, n - 1, unit)
        ops[n] = (psi_star(n, n) @ psi_star(n, n - 1), psi(n, n - 1) @ psi(n, n),
                  o.scale(RationalScalar(qn).inverse()), oi.scale(RationalScalar(qn)))
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
                q_end = RationalScalar(LaurentScalar.qs(cd.qi_exp[i]))
                if i == 0:
                    e[i] = kron(psi(n, 1), psi(n, 1))
                    f[i] = kron(psi_star(n, 1), psi_star(n, 1))
                    o2 = omega(n, 1, unit, power=2)
                    o2i = omega(n, 1, unit, power=-2)
                    tt[i] = kron(o2, o2).scale(q_end)
                    tinv[i] = kron(o2i, o2i).scale(q_end.inverse())
                else:
                    e[i] = kron(psi_star(n, n), psi_star(n, n))
                    f[i] = kron(psi(n, n), psi(n, n))
                    o2 = omega(n, n, unit, power=2)
                    o2i = omega(n, n, unit, power=-2)
                    tt[i] = kron(o2i, o2i).scale(q_end.inverse())
                    tinv[i] = kron(o2, o2).scale(q_end)
            else:
                e1, f1, t1, ti1 = single[i]
                e[i] = kron(e1, ti1) + kron(ident, e1)
                f[i] = kron(f1, ident) + kron(t1, f1)
                tt[i] = kron(t1, t1)
                tinv[i] = kron(ti1, ti1)
    weights = [crys.weight(t, x) for x in range(dim)]
    return Representation(type=t, cd=cd, copies=2 if t.doubled else 1, dim=dim,
                          e=e, f=f, t=tt, tinv=tinv, weights=weights)


# -- relation and polarization suites -----------------------------------------


@dataclass
class Check:
    name: str
    ok: bool


def _qpow(rep: Representation, i: int, k: int) -> RationalScalar:
    return RationalScalar(LaurentScalar.qs(rep.cd.qi_exp[i] * k))


def divided_power(rep: Representation, op: SparseOperator, k: int, i: int) -> SparseOperator:
    fact = RationalScalar(qfactorial(k, rep.cd.qi_exp[i]))
    return op.power(k).scale(fact.inverse())


def verify_relations(rep: Representation):
    """Every defining relation, checked as an exact matrix identity."""
    n = rep.type.n
    dim = rep.dim
    ident = SparseOperator.identity(dim)
    a = rep.cd.a
    jobs = []

    def add(name, thunk):
        jobs.append((name, thunk))

    for i in range(n + 1):
        add(f"t({i}) t({i})^-1 = 1",
            lambda i=i: (rep.t[i] @ rep.tinv[i]) == ident)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            add(f"t({i}) t({j}) commute",
                lambda i=i, j=j: (rep.t[i] @ rep.t[j]) == (rep.t[j] @ rep.t[i]))
    for i in range(n + 1):
        for j in range(n + 1):
            add(f"t({i}) e({j}) gauge",
                lambda i=i, j=j: (rep.t[i] @ rep.e[j] @ rep.tinv[i])
                == rep.e[j].scale(_qpow(rep, i, a[i][j])))
            add(f"t({i}) f({j}) gauge",
                lambda i=i, j=j: (rep.t[i] @ rep.f[j] @ rep.tinv[i])
                == rep.f[j].scale(_qpow(rep, i, -a[i][j])))
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                def thunk(i=i):
                    lhs = rep.e[i] @ rep.f[i] - rep.f[i] @ rep.e[i]
                    qi = LaurentScalar.qs(rep.cd.qi_exp[i])
                    qii = LaurentScalar.qs(-rep.cd.qi_exp[i])
                    rhs = (rep.t[i] - rep.tinv[i]).scale(
                        RationalScalar(qi - qii).inverse())
                    return lhs == rhs
                add(f"[e({i}), f({i})] string identity", thunk)
            else:
                add(f"[e({i}), f({j})] = 0",
                    lambda i=i, j=j: (rep.e[i] @ rep.f[j] - rep.f[j] @ rep.e[i]).is_zero)
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            m = 1 - a[i][j]

            def serre(x, i=i, j=j, m=m):
                total = SparseOperator(dim)
                parts = rep.e if x == "e" else rep.f
                for kk in range(m + 1):
                    term = divided_power(rep, parts[i], kk, i) @ parts[j] \
                        @ divided_power(rep, parts[i], m - kk, i)
                    total = total + (term if kk % 2 == 0 else -term)
                return total.is_zero

            add(f"serre e({i},{j})", lambda i=i, j=j, m=m: serre("e", i, j, m))
            add(f"serre f({i},{j})", lambda i=i, j=j, m=m: serre("f", i, j, m))

    return [Check(name, thunk()) for name, thunk in jobs]


def verify_weight_compatibility(rep: Representation):
    """Diagonal gauge eigenvalues match the crystal weights exactly."""
    checks = []
    for i in range(rep.type.n + 1):
        expected = SparseOperator.diagonal(
            rep.dim,
            [RationalScalar(LaurentScalar.qs(rep.cd.qi_exp[i] * rep.weights[idx][i]))
             for idx in range(rep.dim)])
        checks.append(Check(f"t({i}) eigenvalues match weights", rep.t[i] == expected))
    return checks


def verify_polarization(rep: Representation):
    """Transpose against the twisted antiautomorphism, entry by entry."""
    checks = []
    for i in range(rep.type.n + 1):
        qinv = _qpow(rep, i, -1)
        eta_e = (rep.tinv[i] @ rep.f[i]).scale(qinv)
        eta_f = (rep.t[i] @ rep.e[i]).scale(qinv)
        checks.append(Check(f"polarization e({i})", rep.e[i].transpose() == eta_e))
        checks.append(Check(f"polarization f({i})", rep.f[i].transpose() == eta_f))
        checks.append(Check(f"polarization t({i})", rep.t[i].transpose() == rep.t[i]))
    return checks


# -- the integer generators and relation checks in global form ------------------


class GlobalOperator(fock.SparseOperator):
    """A ``fock.SparseOperator`` with the global arithmetic that ``fock``
    used before its generators were factored: every product is one sparse
    kernel (``_product``) that multiplies one-term entries inline."""

    __slots__ = ()

    @classmethod
    def identity(cls, dim: int) -> "GlobalOperator":
        return cls.diagonal(dim, [{0: 1}] * dim)

    @classmethod
    def diagonal(cls, dim: int, values) -> "GlobalOperator":
        return cls(dim, {(i, i): v for i, v in enumerate(values)})

    def scale(self, p: dict) -> "GlobalOperator":
        return GlobalOperator(self.dim, {rc: pmul(v, p) for rc, v in self.entries.items()})

    def __add__(self, other: fock.SparseOperator) -> "GlobalOperator":
        e = dict(self.entries)
        for rc, v in other.entries.items():
            e[rc] = padd(e[rc], v) if rc in e else v
        return GlobalOperator(self.dim, e)

    def __neg__(self) -> "GlobalOperator":
        return GlobalOperator(self.dim, {rc: {k: -s for k, s in v.items()}
                                         for rc, v in self.entries.items()})

    def __sub__(self, other: fock.SparseOperator) -> "GlobalOperator":
        return self + (-other)

    def is_diagonal(self) -> bool:
        return all(r == c for r, c in self.entries)

    def __matmul__(self, other: fock.SparseOperator) -> "GlobalOperator":
        return _product(self.dim, _column_index(self), other)

    def transpose(self) -> "GlobalOperator":
        return GlobalOperator(self.dim, {(c, r): v for (r, c), v in self.entries.items()})


def _column_index(op: fock.SparseOperator) -> dict:
    """col -> [(row, entry, exponent, coefficient)]: ``op`` as a left factor.
    Exponent and coefficient are None unless the entry has one term."""
    by_col = {}
    for (r, c), v in op.entries.items():
        e, s = next(iter(v.items())) if len(v) == 1 else (None, None)
        by_col.setdefault(c, []).append((r, v, e, s))
    return by_col


def _product(dim: int, by_col: dict, right: fock.SparseOperator) -> GlobalOperator:
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
    return GlobalOperator(dim, out)


def global_kron(low: fock.SparseOperator, high: fock.SparseOperator) -> GlobalOperator:
    """Tensor product; the first factor owns the low index bits."""
    d = low.dim
    return GlobalOperator(d * high.dim, {(r1 + r2 * d, c1 + c2 * d): pmul(v1, v2)
                                         for (r1, c1), v1 in low.entries.items()
                                         for (r2, c2), v2 in high.entries.items()})


def _integer_phase(state: int, bit: int) -> int:
    return -1 if bin(state & ((1 << bit) - 1)).count("1") % 2 else 1


def global_psi(n: int, j: int) -> GlobalOperator:
    """Creation at row j-bar with the fermionic phase over lower bits."""
    b = _bit(n, j)
    return GlobalOperator(1 << n, {(s | (1 << b), s): {0: _integer_phase(s, b)}
                                   for s in range(1 << n) if not (s >> b) & 1})


def global_psi_star(n: int, j: int) -> GlobalOperator:
    """Annihilation at row j-bar, adjoint phase convention."""
    b = _bit(n, j)
    return GlobalOperator(1 << n, {(s & ~(1 << b), s): {0: _integer_phase(s, b)}
                                   for s in range(1 << n) if (s >> b) & 1})


def global_omega(n: int, j: int, unit: int, power: int = 1) -> GlobalOperator:
    """Diagonal gauge operator: qs^(unit*power*(m_j - 1)) on each state."""
    b = _bit(n, j)
    return GlobalOperator.diagonal(
        1 << n, [{unit * power * (((s >> b) & 1) - 1): 1} for s in range(1 << n)])


def global_parity(n: int) -> GlobalOperator:
    """Fermion parity (-1)^(occupation count), the Klein twist factor."""
    return GlobalOperator.diagonal(
        1 << n, [{0: -1 if bin(s).count("1") % 2 else 1} for s in range(1 << n)])


def _global_end_ops(t: AffineType, cd: CartanData, i: int):
    """Raw (e, f, t, t^-1) of end node i, for i = 0 or n, as matrices."""
    n = t.n
    unit = cd.qi_exp[1]
    if i == 0:
        shape, a, b, up, down, s = t.end0, 1, 2, global_psi, global_psi_star, 1
    else:
        shape, a, b, up, down, s = t.end_n, n, n - 1, global_psi_star, global_psi, -1
    q, qinv = {s * cd.qi_exp[i]: 1}, {-s * cd.qi_exp[i]: 1}
    omega = global_omega
    if shape == SINGLE:
        return (up(n, a), down(n, a),
                omega(n, a, unit, s).scale(q), omega(n, a, unit, -s).scale(qinv))
    if shape == FORK:
        return (up(n, a) @ up(n, b), down(n, b) @ down(n, a),
                (omega(n, a, unit, s) @ omega(n, b, unit, s)).scale(q),
                (omega(n, a, unit, -s) @ omega(n, b, unit, -s)).scale(qinv))
    o, oi = omega(n, a, unit, 2 * s), omega(n, a, unit, -2 * s)
    return (global_kron(up(n, a), up(n, a)), global_kron(down(n, a), down(n, a)),
            global_kron(o, o).scale(q), global_kron(oi, oi).scale(qinv))


def global_representation(t: AffineType) -> fock.Representation:
    """``fock.representation`` as it was before the factors: every step of
    the construction on whole 2^n- or 4^n-dimensional matrices."""
    cd = cartan_data(t)
    n = t.n
    unit = cd.qi_exp[1]
    ops = {0: _global_end_ops(t, cd, 0)}
    for i in range(1, n):
        ops[i] = (global_psi(n, i + 1) @ global_psi_star(n, i),
                  global_psi(n, i) @ global_psi_star(n, i + 1),
                  global_omega(n, i + 1, unit) @ global_omega(n, i, unit, power=-1),
                  global_omega(n, i + 1, unit, power=-1) @ global_omega(n, i, unit))
    ops[n] = _global_end_ops(t, cd, n)
    target = fock._klein_target(t)
    if target is not None:
        p = global_parity(n)
        e1, f1, t1, ti1 = ops[target]
        ops[target] = (e1 @ p, p @ f1, t1, ti1)
    dim = 1 << n
    if t.doubled:
        ident = GlobalOperator.identity(dim)
        squared = {i for i, shape in zip((0, n), t.diamond) if shape == DOUBLE}
        kron = global_kron
        for i in range(n + 1):
            if i not in squared:
                e1, f1, t1, ti1 = ops[i]
                ops[i] = (kron(e1, ti1) + kron(ident, e1), kron(f1, ident) + kron(t1, f1),
                          kron(t1, t1), kron(ti1, ti1))
        dim *= dim
    e, f, tt, tinv = ({i: ops[i][k] for i in range(n + 1)} for k in range(4))
    weights = crys.rule_weights(crys.rules(t), range(dim))
    return fock.Representation(type=t, cd=cd, dim=dim, e=e, f=f, t=tt, tinv=tinv,
                               weights=weights)


def global_module(rep: fock.Representation) -> fock.Representation:
    """``rep`` with its generators as ``GlobalOperator``s (entries shared)."""
    e, f, tt, tinv = ({i: GlobalOperator(rep.dim, op.entries) for i, op in ops.items()}
                      for ops in (rep.e, rep.f, rep.t, rep.tinv))
    return fock.Representation(type=rep.type, cd=rep.cd, dim=rep.dim, e=e, f=f, t=tt,
                               tinv=tinv, weights=rep.weights)


def global_compare(name: str, lhs: fock.SparseOperator, rhs: fock.SparseOperator
                   ) -> fock.Check:
    """The matrix identity lhs = rhs; a failure names its first differing entry."""
    a, b = lhs.entries, rhs.entries
    if a == b:
        return fock.Check(name, True)
    rc = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    return fock.Check(name, False, f"entry {rc}: lhs {laurent.format_poly(a.get(rc, {}))}, "
                                   f"rhs {laurent.format_poly(b.get(rc, {}))}")


def _monomial_diagonal(op: fock.SparseOperator):
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


def _conjugates_to(d, dinv, x: fock.SparseOperator, k: int) -> bool:
    """d x dinv = qs^k x for monomial diagonals d, dinv, decided entrywise:
    d[r] x[r, c] dinv[c] = qs^k x[r, c] exactly when the exponents of d[r]
    and dinv[c] sum to k and their coefficients multiply to 1, since x[r, c]
    is nonzero and Z[qs^±1] has no zero divisors."""
    (de, ds), (ie, is_) = d, dinv
    return all(de[r] + ie[c] == k and ds[r] * is_[c] == 1 for r, c in x.entries)


def _serre_sides(mul, xi: GlobalOperator, ij: GlobalOperator, b: GlobalOperator,
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


def global_verify_relations(rep: fock.Representation):
    """``fock.verify_relations`` on whole matrices, as it was before the
    factors: entrywise tests for one-term diagonal t's, Horner-form Serre
    sums, and both full products with ``global_compare`` otherwise."""
    rep = global_module(rep)
    idx = range(rep.type.n + 1)
    ident = GlobalOperator.identity(rep.dim)
    zero = GlobalOperator(rep.dim)
    a, qe = rep.cd.a, rep.cd.qi_exp
    t, tinv = rep.t, rep.tinv
    compare = global_compare
    mono = {i: (_monomial_diagonal(t[i]), _monomial_diagonal(tinv[i])) for i in idx}
    # every e and f enters many products as the left factor: index it once
    index = {id(op): _column_index(op) for ops in (rep.e, rep.f) for op in ops.values()}

    def mul(left, right):
        by_col = index.get(id(left))
        return left @ right if by_col is None else _product(rep.dim, by_col, right)

    def conjugation(name, i, x, k):
        d, dinv = mono[i]
        if d is not None and dinv is not None and _conjugates_to(d, dinv, x, k):
            return fock.Check(name, True)
        return compare(name, t[i] @ x @ tinv[i], x.scale({k: 1}))

    checks = [conjugation(f"t({i}) t({i})^-1 = 1", i, ident, 0) for i in idx]
    checks += [fock.Check(f"t({i}) t({j}) commute", True)
               if t[i].is_diagonal() and t[j].is_diagonal()
               else compare(f"t({i}) t({j}) commute", t[i] @ t[j], t[j] @ t[i])
               for i in idx for j in idx if j > i]
    for i in idx:
        for j in idx:
            checks.append(conjugation(f"t({i}) e({j}) gauge", i, rep.e[j], qe[i] * a[i][j]))
            checks.append(conjugation(f"t({i}) f({j}) gauge", i, rep.f[j], -qe[i] * a[i][j]))
    for i in idx:
        for j in idx:
            ef, fe = mul(rep.e[i], rep.f[j]), mul(rep.f[j], rep.e[i])
            if i == j:
                checks.append(compare(f"[e({i}), f({i})] string identity",
                                      (ef - fe).scale({qe[i]: 1, -qe[i]: -1}),
                                      t[i] - tinv[i]))
            else:
                checks.append(compare(f"[e({i}), f({j})] = 0", ef, fe))
    # serre(i, j) and serre(j, i) share the products x_i x_j and x_j x_i:
    # both are checked at (i, j), i < j, and serre(j, i) waits for its turn
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
                        pending[x, p, q] = fock.Check(name, True) if lhs == rhs else \
                            compare(name, lhs - rhs, zero)
                checks.append(pending.pop((x, i, j)))
    return checks


def global_verify_weight_compatibility(rep: fock.Representation):
    """Diagonal gauge eigenvalues match the crystal weights of every state."""
    qe = rep.cd.qi_exp
    return [global_compare(f"t({i}) eigenvalues match weights", rep.t[i],
                           GlobalOperator.diagonal(rep.dim, [{qe[i] * w[i]: 1}
                                                             for w in rep.weights]))
            for i in range(rep.type.n + 1)]


def global_verify_polarization(rep: fock.Representation):
    """Transpose against the twisted antiautomorphism, on whole matrices."""
    rep = global_module(rep)
    checks = []
    for i in range(rep.type.n + 1):
        qinv = {-rep.cd.qi_exp[i]: 1}
        checks.append(global_compare(f"polarization e({i})", rep.e[i].transpose(),
                                     (rep.tinv[i] @ rep.f[i]).scale(qinv)))
        checks.append(global_compare(f"polarization f({i})", rep.f[i].transpose(),
                                     (rep.t[i] @ rep.e[i]).scale(qinv)))
        checks.append(global_compare(f"polarization t({i})", rep.t[i].transpose(),
                                     rep.t[i]))
    return checks


# the global form of each check function that reads the factors
GLOBAL_CHECKS = {"verify_relations": global_verify_relations,
                 "verify_weight_compatibility": global_verify_weight_compatibility,
                 "verify_polarization": global_verify_polarization}


# -- the integer relation checks in product form --------------------------------


def integer_product(lhs: fock.SparseOperator, rhs: fock.SparseOperator) -> GlobalOperator:
    """lhs @ rhs by the general sparse kernel ``fock`` used before its
    diagonal and one-term fast paths: every entry product through ``pmul``."""
    by_col = {}
    for (r, c), v in lhs.entries.items():
        by_col.setdefault(c, []).append((r, v))
    out = {}
    for (r2, c2), v2 in rhs.entries.items():
        for r1, v1 in by_col.get(r2, ()):
            p = pmul(v1, v2)
            out[r1, c2] = padd(out[r1, c2], p) if (r1, c2) in out else p
    return GlobalOperator(lhs.dim, out)


def integer_verify_relations(rep: fock.Representation):
    """``global_verify_relations`` without its entrywise t and gauge checks
    and its Horner-form Serre sums: every check builds both sides as full
    matrix products in Z[qs^±1] and compares them with ``global_compare``,
    so the (name, ok, witness) lists of the two must agree."""
    rep = global_module(rep)
    mul = integer_product
    compare = global_compare
    idx = range(rep.type.n + 1)
    ident = GlobalOperator.identity(rep.dim)
    zero = GlobalOperator(rep.dim)
    a, qe = rep.cd.a, rep.cd.qi_exp
    t, tinv = rep.t, rep.tinv
    checks = [compare(f"t({i}) t({i})^-1 = 1", mul(t[i], tinv[i]), ident) for i in idx]
    checks += [compare(f"t({i}) t({j}) commute", mul(t[i], t[j]), mul(t[j], t[i]))
               for i in idx for j in idx if j > i]
    for i in idx:
        for j in idx:
            checks.append(compare(f"t({i}) e({j}) gauge",
                                  mul(mul(t[i], rep.e[j]), tinv[i]),
                                  rep.e[j].scale({qe[i] * a[i][j]: 1})))
            checks.append(compare(f"t({i}) f({j}) gauge",
                                  mul(mul(t[i], rep.f[j]), tinv[i]),
                                  rep.f[j].scale({-qe[i] * a[i][j]: 1})))
    for i in idx:
        for j in idx:
            ef, fe = mul(rep.e[i], rep.f[j]), mul(rep.f[j], rep.e[i])
            if i == j:
                checks.append(compare(f"[e({i}), f({i})] string identity",
                                      (ef - fe).scale({qe[i]: 1, -qe[i]: -1}),
                                      t[i] - tinv[i]))
            else:
                checks.append(compare(f"[e({i}), f({j})] = 0", ef, fe))
    for i in idx:
        top = max(1 - a[i][j] for j in idx if j != i)
        powers = {}
        for x, ops in (("e", rep.e), ("f", rep.f)):
            powers[x] = [ident]
            for _ in range(top):
                powers[x].append(mul(powers[x][-1], ops[i]))
        for j in idx:
            if j == i:
                continue
            m = 1 - a[i][j]
            for x, ops in (("e", rep.e), ("f", rep.f)):
                total = zero
                for k in range(m + 1):
                    term = mul(mul(powers[x][k], ops[j]), powers[x][m - k]).scale(
                        qbinomial(m, k, qe[i]))
                    total = total + term if k % 2 == 0 else total - term
                checks.append(compare(f"serre {x}({i},{j})", total, zero))
    return checks


# -- modified root operators per whole weight space ---------------------------


def kashiwara_operators_by_weight_space(rep: fock.Representation, i: int):
    """(raising, lowering) operators extracted per i-weight space.

    ``fock.kashiwara_operators`` as it was before it split the module into
    the connected blocks of e_i and f_i: one kernel and one change of basis
    per whole i-weight space.  The reduced forms are unique and the blocks
    do not interact, so the two must agree entry for entry."""
    dim = rep.dim
    unit = rep.cd.qi_exp[i]
    buckets = {}
    for idx in range(dim):
        buckets.setdefault(rep.weights[idx][i], []).append(idx)
    for r, c in rep.e[i].entries:
        if rep.weights[r][i] != rep.weights[c][i] + 2:
            raise ArithmeticError(f"raising operator {i} is not weight-homogeneous")
    by_col, f_cols = fock._columns(rep, "e", i), fock._columns(rep, "f", i)

    strings = []  # (top_weight m, [w_r dicts for r = 0..m])
    for m, cols in sorted(buckets.items(), reverse=True):
        if m < 0:
            continue
        rows = {}
        for c in cols:
            for r, v in by_col.get(c, ()):
                rows.setdefault(r, {})[c] = v
        for u in fock._kernel(rows.values(), cols):
            chain = [u]
            w = u
            for _ in range(m):
                w = fock._apply_columns(f_cols, w)
                chain.append(w)
            if fock._apply_columns(f_cols, w):
                raise ArithmeticError(f"string through weight {m} does not close")
            vecs = []
            for r, w in enumerate(chain):
                fact = laurent.rational(laurent.qfactorial(r, unit)).inverse()
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
    et = fock.SparseOperator(dim)
    ft = fock.SparseOperator(dim)
    for lam, rows in by_weight.items():
        idxs = buckets[lam]
        if len(rows) != len(idxs):
            raise ArithmeticError("weight space dimension mismatch")
        red = fock._solve(rows, idxs)
        for c in idxs:
            for k, v in red[c].items():
                if k >= 2 * dim:
                    ft.entries[(k - 2 * dim, c)] = v
                elif k >= dim:
                    et.entries[(k - dim, c)] = v
    return et, ft


# -- dense exact linear algebra (small blocks) ---------------------------------


def _nullspace(rows, ncols):
    """Basis of the right kernel of the dense matrix (list of row lists)."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if not mat[r][c].is_zero:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][c].inverse()
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not mat[r][c].is_zero:
                factor = mat[r][c]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[rank])]
        pivots.append(c)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _solve_multi(a_rows, b_rows):
    """Solve A X = B for square A; A and B given as row lists."""
    size = len(a_rows)
    width = len(b_rows[0]) if b_rows else 0
    aug = [list(ar) + list(br) for ar, br in zip(a_rows, b_rows)]
    for c in range(size):
        pivot = None
        for r in range(c, size):
            if not aug[r][c].is_zero:
                pivot = r
                break
        if pivot is None:
            raise ArithmeticError("singular change of basis")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [v * inv for v in aug[c]]
        for r in range(size):
            if r != c and not aug[r][c].is_zero:
                factor = aug[r][c]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[c])]
    return [row[size:size + width] for row in aug]
