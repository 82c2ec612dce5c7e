"""Exact scalar arithmetic in one deformation variable.

Two rings in a single variable ``qs`` (integer exponents, possibly
negative):

- Z[qs^±1], integer Laurent polynomials as plain dicts exponent -> nonzero
  int (``{}`` is zero).  Generator matrices and every relation check live
  here; the helpers ``padd``, ``pmul`` and ``qbinomial`` act on them and
  never mutate their arguments.
- Q(qs), the fraction field, for exact elimination only.  A
  :class:`RationalScalar` is a pair of such dicts, numerator over
  denominator, kept in a canonical form that makes equality syntactic.
  ``rational`` carries a Z[qs^±1] entry across.
"""

from __future__ import annotations

from math import gcd


class NotRegular(ArithmeticError):
    """Evaluation at qs = 0 of a scalar that has a pole there."""


def format_poly(p: dict) -> str:
    """Text of a Laurent polynomial {exponent: coefficient}, lowest term first."""
    if not p:
        return "0"
    parts = []
    for e, v in sorted(p.items()):
        if e == 0:
            parts.append(str(v))
        else:
            head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
            parts.append(f"{head}qs^{e}" if e != 1 else f"{head}qs")
    return " + ".join(parts).replace("+ -", "- ")


# -- integer Laurent polynomials: dicts exponent -> nonzero int ---------------


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        s = out.get(e, 0) + v
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def pmul(a: dict, b: dict) -> dict:
    if len(a) == 1:
        (ea, va), = a.items()
        return {ea + e: va * v for e, v in b.items()}
    if len(b) == 1:
        (eb, vb), = b.items()
        return {e + eb: v * vb for e, v in a.items()}
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + va * vb
    return {e: v for e, v in out.items() if v}


def qbinomial(m: int, k: int, unit: int = 1) -> dict:
    """[m choose k] in the variable q = qs^unit, by the q-Pascal rule:

    [m choose k] = q^-k [m-1 choose k] + q^(m-k) [m-1 choose k-1].
    """
    row = [{0: 1}]
    for mm in range(1, m + 1):
        row = [padd(pmul({-unit * kk: 1}, row[kk]) if kk < mm else {},
                    pmul({unit * (mm - kk): 1}, row[kk - 1]) if kk else {})
               for kk in range(mm + 1)]
    return row[k] if 0 <= k <= m else {}


def qfactorial(k: int, unit: int = 1) -> dict:
    """[k]! in the variable qs^unit, the product of [s] = sum_j qs^(unit(s-1-2j))."""
    out = {0: 1}
    for s in range(2, k + 1):
        out = pmul(out, {unit * (s - 1 - 2 * j): 1 for j in range(s)})
    return out


def _shift(p: dict, k: int) -> dict:
    return {e + k: v for e, v in p.items()} if k else p


def _primitive(p: dict) -> dict:
    c = gcd(*p.values())
    return {e: v // c for e, v in p.items()} if c != 1 else p


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b in Z[qs]: a times a power of b's leading
    coefficient, reduced below b's degree."""
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        a = {e: v * lb for e, v in a.items()}
        for e, v in b.items():
            ee = e + da - db
            s = a.get(ee, 0) - la * v
            if s:
                a[ee] = s
            else:
                del a[ee]
    return a


def _pgcd(a: dict, b: dict) -> dict:
    """Primitive gcd in Z[qs] of two nonzero polynomials (primitive PRS)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return a


def _pdiv(a: dict, b: dict) -> dict:
    """Exact quotient a / b in Z[qs]; b primitive and known to divide a."""
    db = max(b)
    lb = b[db]
    a = dict(a)
    q = {}
    while a:
        da = max(a)
        f = a[da] // lb
        q[da - db] = f
        for e, v in b.items():
            ee = e + da - db
            s = a.get(ee, 0) - f * v
            if s:
                a[ee] = s
            else:
                del a[ee]
    return q


# -- the fraction field Q(qs) --------------------------------------------------

_UNIT = {0: 1}


def _new(num: dict, den: dict) -> "RationalScalar":
    out = object.__new__(RationalScalar)
    out.num = num
    out.den = den
    return out


def _reduced(num: dict, den: dict) -> "RationalScalar":
    """num / den in canonical form; both nonzero-coefficient dicts, den != {}."""
    if not num:
        return _ZERO
    vd = min(den)
    if vd:
        num, den = _shift(num, -vd), _shift(den, -vd)
    if len(den) > 1:
        vn = min(num)
        g = _pgcd(_shift(num, -vn), den)
        if len(g) > 1:
            num, den = _shift(_pdiv(_shift(num, -vn), g), vn), _pdiv(den, g)
    c = gcd(*num.values(), *den.values())
    if den[0] < 0:
        c = -c
    if c != 1:
        num = {e: v // c for e, v in num.items()}
        den = {e: v // c for e, v in den.items()}
    return _new(num, _UNIT if den == _UNIT else den)


class RationalScalar:
    """Element of the fraction field Q(qs): ``num / den``, two Z[qs^±1] dicts.

    Canonical form: numerator and denominator are coprime up to a unit
    ±qs^k, their coefficients share no integer factor, and the denominator
    has valuation 0 and a positive constant term.  Equality of values is
    then equality of the stored pairs.  Values are immutable, and the
    dicts are never mutated.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict | None = None):
        num = {e: v for e, v in num.items() if v}
        if den is not None:
            den = {e: v for e, v in den.items() if v}
            if not den:
                raise ZeroDivisionError("scalar division by zero")
        out = rational(num) if den is None or den == _UNIT else _reduced(num, den)
        self.num, self.den = out.num, out.den

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        if not isinstance(other, RationalScalar):
            return NotImplemented
        if self.den == other.den:
            if self.den is _UNIT:
                num = padd(self.num, other.num)
                return _new(num, _UNIT) if num else _ZERO
            return _reduced(padd(self.num, other.num), self.den)
        return _reduced(padd(pmul(self.num, other.den), pmul(other.num, self.den)),
                        pmul(self.den, other.den))

    def __neg__(self):
        return _new({e: -v for e, v in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, RationalScalar):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, RationalScalar):
            return NotImplemented
        if not self.num or not other.num:
            return _ZERO
        if self.den is _UNIT and other.den is _UNIT:
            return _new(pmul(self.num, other.num), _UNIT)
        return _reduced(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other):
        if not isinstance(other, RationalScalar):
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        """1 / self; swapping a canonical pair keeps it coprime and primitive."""
        num = self.num
        if not num:
            raise ZeroDivisionError("scalar division by zero")
        if len(num) == 1:
            (e, v), = num.items()
            if v == 1 or v == -1:
                return _new({k - e: v * c for k, c in self.den.items()}, _UNIT)
        vn = min(num)
        if num[vn] < 0:
            return _new({k - vn: -c for k, c in self.den.items()},
                        {k - vn: -c for k, c in num.items()})
        return _new(_shift(self.den, -vn), _shift(num, -vn))

    def __eq__(self, other):
        if not isinstance(other, RationalScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    @property
    def is_regular(self) -> bool:
        """True when the value has no pole at qs = 0."""
        return not self.num or min(self.num) >= 0

    def eval_at_zero(self):
        """The value at qs = 0: an int when it is one, else a ``Fraction``."""
        if not self.is_regular:
            raise NotRegular(f"pole at qs = 0: {self}")
        num, den = self.num.get(0, 0), self.den[0]
        value, rem = divmod(num, den)
        if not rem:
            return value
        from fractions import Fraction

        return Fraction(num, den)

    def __str__(self):
        if self.den == _UNIT:
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"

    __repr__ = __str__


_ZERO = _new({}, _UNIT)
_ONE = _new(_UNIT, _UNIT)


def rational(p: dict) -> RationalScalar:
    """The Q(qs) value of a Z[qs^±1] entry; already canonical (denominator 1)."""
    return _new(p, _UNIT) if p else _ZERO
