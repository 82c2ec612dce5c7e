"""Exact scalar arithmetic in one deformation variable.

Two rings in a single variable ``qs`` (integer exponents, possibly
negative):

- Z[qs^±1], integer Laurent polynomials as plain dicts exponent -> nonzero
  int (``{}`` is zero).  Generator matrices and every relation check live
  here; the helpers ``padd``, ``pmul`` and ``qbinomial`` act on them and
  never mutate their arguments.
- Q(qs), the fraction field, for exact elimination only.  Laurent
  polynomials with :class:`fractions.Fraction` coefficients
  (:class:`LaurentScalar`) and their quotients (:class:`RationalScalar`),
  kept in a canonical reduced form (gcd-reduced, denominator a polynomial
  with constant term 1), which makes equality syntactic.  ``rational``
  carries a Z[qs^±1] entry across.
"""

from __future__ import annotations

from fractions import Fraction


class NotRegular(ArithmeticError):
    """Evaluation at qs = 0 of a scalar that has a pole there."""


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


# -- integer Laurent polynomials: dicts exponent -> nonzero int ---------------

_LAURENT_ONE = LaurentScalar.one()


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


def rational(p: dict) -> RationalScalar:
    """The Q(qs) value of a Z[qs^±1] entry; already canonical (denominator 1)."""
    out = RationalScalar.__new__(RationalScalar)
    out.num = LaurentScalar(p)
    out.den = _LAURENT_ONE
    return out
