"""Object-based crystal operators, kept as test oracles for the id kernel.

These are the element classes and operators the package used before it
switched to integer ids: ``BinaryVector``/``BinaryMatrix`` hold explicit
bit tuples, and every operator rebuilds them.  They are slow and simple,
and the tests compare the id kernel of ``wedge_crystal.crystal`` and
``wedge_crystal.bicrystal`` against them element by element.

The last section keeps the id kernel's own earlier forms, which the package
replaced by table reads: the weight tested rule by rule, the text from
``format``, the component search and the classically-highest test through
``step_f``/``step_e``, and the ground-set passes of ``wedge_crystal.theorems``
through ``step_f``/``step_e`` and ``UnionFind``.
"""

from __future__ import annotations

from array import array

from wedge_crystal import bicrystal, crystal, theorems
from wedge_crystal.cartan import AffineType, DOUBLE, FORK, SINGLE


class BinaryVector:
    """Element of the single-column ground set; bits[j-1] is row j-bar."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.bits)

    def get(self, j: int) -> int:
        return self.bits[j - 1]

    def updated(self, changes: dict) -> "BinaryVector":
        bits = list(self.bits)
        for j, v in changes.items():
            bits[j - 1] = v
        return BinaryVector(bits)

    @property
    def id(self) -> int:
        n = len(self.bits)
        return sum(self.bits[j - 1] << (n - j) for j in range(1, n + 1))

    @classmethod
    def from_id(cls, n: int, v: int) -> "BinaryVector":
        return cls([(v >> (n - j)) & 1 for j in range(1, n + 1)])

    @property
    def text(self) -> str:
        return "/".join(str(self.bits[j - 1]) for j in range(len(self.bits), 0, -1))

    @classmethod
    def from_text(cls, text: str) -> "BinaryVector":
        rows = text.strip().split("/")
        bits = [int(r) for r in reversed(rows)]
        return cls(bits)

    def __eq__(self, other):
        return isinstance(other, BinaryVector) and self.bits == other.bits

    def __hash__(self):
        return hash(("v", self.bits))

    def __repr__(self):
        return f"BinaryVector({self.text})"


class BinaryMatrix:
    """Element of the two-column ground set: a pair of binary columns."""

    __slots__ = ("col1", "col2")

    def __init__(self, col1: BinaryVector, col2: BinaryVector):
        if col1.n != col2.n:
            raise ValueError("columns must have equal length")
        self.col1 = col1
        self.col2 = col2

    @property
    def n(self) -> int:
        return self.col1.n

    def row(self, j: int):
        return (self.col1.get(j), self.col2.get(j))

    @property
    def id(self) -> int:
        return self.col1.id | (self.col2.id << self.n)

    @classmethod
    def from_id(cls, n: int, v: int) -> "BinaryMatrix":
        mask = (1 << n) - 1
        return cls(BinaryVector.from_id(n, v & mask), BinaryVector.from_id(n, v >> n))

    @property
    def text(self) -> str:
        n = self.n
        return "/".join(
            f"{self.col1.get(j)}{self.col2.get(j)}" for j in range(n, 0, -1)
        )

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        rows = text.strip().split("/")
        n = len(rows)
        c1, c2 = [0] * n, [0] * n
        for offset, row in enumerate(rows):
            if len(row) != 2 or any(ch not in "01" for ch in row):
                raise ValueError(f"bad matrix row {row!r}")
            j = n - offset
            c1[j - 1] = int(row[0])
            c2[j - 1] = int(row[1])
        return cls(BinaryVector(c1), BinaryVector(c2))

    def with_row(self, j: int, pair) -> "BinaryMatrix":
        return BinaryMatrix(self.col1.updated({j: pair[0]}),
                            self.col2.updated({j: pair[1]}))

    def __eq__(self, other):
        return (isinstance(other, BinaryMatrix)
                and self.col1 == other.col1 and self.col2 == other.col2)

    def __hash__(self):
        return hash(("m", self.col1.bits, self.col2.bits))

    def __repr__(self):
        return f"BinaryMatrix({self.text})"


def _check_index(t: AffineType, i: int):
    if not 0 <= i <= t.n:
        raise ValueError(f"index {i} out of range for n={t.n}")


def _col_e(t: AffineType, i: int, v: BinaryVector):
    """Raising operator on one column (middle or non-doubled end index)."""
    n = t.n
    if 1 <= i <= n - 1:
        if v.get(i + 1) == 0 and v.get(i) == 1:
            return v.updated({i + 1: 1, i: 0})
        return None
    if i == 0:
        shape = t.end0
        if shape == SINGLE:
            return v.updated({1: 1}) if v.get(1) == 0 else None
        if shape == FORK:
            if v.get(1) == 0 and v.get(2) == 0:
                return v.updated({1: 1, 2: 1})
            return None
    else:
        shape = t.end_n
        if shape == SINGLE:
            return v.updated({n: 0}) if v.get(n) == 1 else None
        if shape == FORK:
            if v.get(n) == 1 and v.get(n - 1) == 1:
                return v.updated({n: 0, n - 1: 0})
            return None
    raise ValueError(f"index {i} has no single-column rule for {t}")


def _col_f(t: AffineType, i: int, v: BinaryVector):
    n = t.n
    if 1 <= i <= n - 1:
        if v.get(i + 1) == 1 and v.get(i) == 0:
            return v.updated({i + 1: 0, i: 1})
        return None
    if i == 0:
        shape = t.end0
        if shape == SINGLE:
            return v.updated({1: 0}) if v.get(1) == 1 else None
        if shape == FORK:
            if v.get(1) == 1 and v.get(2) == 1:
                return v.updated({1: 0, 2: 0})
            return None
    else:
        shape = t.end_n
        if shape == SINGLE:
            return v.updated({n: 1}) if v.get(n) == 0 else None
        if shape == FORK:
            if v.get(n) == 0 and v.get(n - 1) == 0:
                return v.updated({n: 1, n - 1: 1})
            return None
    raise ValueError(f"index {i} has no single-column rule for {t}")


def _double_end(t: AffineType, i: int) -> bool:
    return (i == 0 and t.end0 == DOUBLE) or (i == t.n and t.end_n == DOUBLE)


def e_tilde(t: AffineType, i: int, x):
    """Raising operator; returns the raised element or None."""
    _check_index(t, i)
    if isinstance(x, BinaryVector):
        if t.doubled:
            raise ValueError(f"{t} acts on matrices, not vectors")
        return _col_e(t, i, x)
    if not isinstance(x, BinaryMatrix):
        raise ValueError(f"not a crystal element: {x!r}")
    if not t.doubled:
        raise ValueError(f"{t} acts on vectors, not matrices")
    if _double_end(t, i):
        if i == 0:
            return x.with_row(1, (1, 1)) if x.row(1) == (0, 0) else None
        return x.with_row(t.n, (0, 0)) if x.row(t.n) == (1, 1) else None
    phi1 = _col_f(t, i, x.col1) is not None
    eps2 = _col_e(t, i, x.col2) is not None
    if phi1 >= eps2:
        c1 = _col_e(t, i, x.col1)
        return None if c1 is None else BinaryMatrix(c1, x.col2)
    c2 = _col_e(t, i, x.col2)
    return None if c2 is None else BinaryMatrix(x.col1, c2)


def f_tilde(t: AffineType, i: int, x):
    """Lowering operator, the inverse relation of :func:`e_tilde`."""
    _check_index(t, i)
    if isinstance(x, BinaryVector):
        if t.doubled:
            raise ValueError(f"{t} acts on matrices, not vectors")
        return _col_f(t, i, x)
    if not isinstance(x, BinaryMatrix):
        raise ValueError(f"not a crystal element: {x!r}")
    if not t.doubled:
        raise ValueError(f"{t} acts on vectors, not matrices")
    if _double_end(t, i):
        if i == 0:
            return x.with_row(1, (0, 0)) if x.row(1) == (1, 1) else None
        return x.with_row(t.n, (1, 1)) if x.row(t.n) == (0, 0) else None
    phi1 = _col_f(t, i, x.col1) is not None
    eps2 = _col_e(t, i, x.col2) is not None
    if phi1 > eps2:
        c1 = _col_f(t, i, x.col1)
        return None if c1 is None else BinaryMatrix(c1, x.col2)
    c2 = _col_f(t, i, x.col2)
    return None if c2 is None else BinaryMatrix(x.col1, c2)


def string_lengths(t: AffineType, i: int, x):
    """(epsilon_i, phi_i): how often the raising/lowering operator applies."""
    eps = 0
    y = e_tilde(t, i, x)
    while y is not None:
        eps += 1
        y = e_tilde(t, i, y)
    phi = 0
    y = f_tilde(t, i, x)
    while y is not None:
        phi += 1
        y = f_tilde(t, i, y)
    return eps, phi


def weight(t: AffineType, x):
    """Coroot pairings (phi_i - epsilon_i) over the full index set."""
    out = []
    for i in range(t.n + 1):
        eps, phi = string_lengths(t, i, x)
        out.append(phi - eps)
    return tuple(out)


def v_kl(t: AffineType, k: int, l: int) -> BinaryMatrix:
    """Canonical classically-highest matrix indexed by (k, l).

    Column 1 carries ones in its top l rows, column 2 in the next n-k-l.
    """
    n = t.n
    if not (0 <= k <= n and 0 <= l <= n - k):
        raise ValueError(f"(k,l)=({k},{l}) out of range for n={n}")
    c1 = [0] * n
    c2 = [0] * n
    for j in range(n - l + 1, n + 1):
        c1[j - 1] = 1
    for j in range(k + 1, n - l + 1):
        c2[j - 1] = 1
    return BinaryMatrix(BinaryVector(c1), BinaryVector(c2))


def v_spin(t: AffineType, k: int) -> BinaryVector:
    """Highest representative of the one or two single-column components."""
    n = t.n
    if k == n:
        return BinaryVector([0] * n)
    if k == n - 1:
        return BinaryVector([0] * (n - 1) + [1])  # row n-bar set
    raise ValueError(f"spin index must be n or n-1, got {k}")


def all_elements(t: AffineType):
    """The full ground set, in id order."""
    n = t.n
    if t.doubled:
        return [BinaryMatrix.from_id(n, v) for v in range(4 ** n)]
    return [BinaryVector.from_id(n, v) for v in range(2 ** n)]


def _signature(m: BinaryMatrix):
    """Surviving raise/lower rows after cancellation.

    Returns (minus_rows, plus_rows): rows whose [0 1] survive (raisable)
    and rows whose [1 0] survive (lowerable), in reading order 1-bar..n-bar.
    """
    stack = []
    for j in range(1, m.n + 1):
        row = m.row(j)
        if row == (1, 0):
            stack.append(("+", j))
        elif row == (0, 1):
            if stack and stack[-1][0] == "+":
                stack.pop()
            else:
                stack.append(("-", j))
    minus = [j for s, j in stack if s == "-"]
    plus = [j for s, j in stack if s == "+"]
    return minus, plus


def E_tilde(m: BinaryMatrix):
    """Row-wise raising operator: flips the last surviving [0 1] row."""
    minus, _ = _signature(m)
    if not minus:
        return None
    return m.with_row(minus[-1], (1, 0))


def F_tilde(m: BinaryMatrix):
    """Row-wise lowering operator: flips the first surviving [1 0] row."""
    _, plus = _signature(m)
    if not plus:
        return None
    return m.with_row(plus[0], (0, 1))


def sigma(m: BinaryMatrix):
    """String position (epsilon, phi) of m under the row operators."""
    minus, plus = _signature(m)
    return (len(minus), len(plus))


def sigma_checked(m: BinaryMatrix):
    """String position computed two ways; raises if they ever disagree."""
    by_rule = sigma(m)
    closed = sigma_closed(m)
    if by_rule != closed:
        raise AssertionError(
            f"string position mismatch at {m.text}: {by_rule} vs {closed}")
    return by_rule


def sigma_by_strings(m: BinaryMatrix):
    """Same statistic computed by iterating the operators (test oracle)."""
    eps = 0
    y = E_tilde(m)
    while y is not None:
        eps += 1
        y = E_tilde(y)
    phi = 0
    y = F_tilde(m)
    while y is not None:
        phi += 1
        y = F_tilde(y)
    return (eps, phi)


def _pos(x: int) -> int:
    return x if x > 0 else 0


def sigma_closed(m: BinaryMatrix):
    """Closed prefix/suffix-maximum formulas for the string position."""
    n = m.n
    eps = 0
    for k in range(1, n + 1):
        total = sum(_pos(m.row(i)[1] - m.row(i)[0]) for i in range(1, k + 1))
        total -= sum(_pos(m.row(i)[0] - m.row(i)[1]) for i in range(1, k))
        eps = max(eps, total)
    phi = 0
    for k in range(1, n + 1):
        total = sum(
            _pos(m.row(i)[0] - m.row(i)[1]) - _pos(m.row(i + 1)[1] - m.row(i + 1)[0])
            for i in range(k, n)
        )
        total += _pos(m.row(n)[0] - m.row(n)[1])
        phi = max(phi, total)
    return (eps, phi)


def varsigma(t: AffineType, k: int, m: BinaryMatrix) -> BinaryMatrix:
    """Order-two symmetry of the shared component of the fork-double types.

    Lowers when the element sits in the longer-phi half, raises otherwise.
    Only defined on the component of the (k, n-k) representative.
    """
    if t.diamond != (FORK, DOUBLE):
        raise ValueError("the involution exists only for fork-plus-double types")
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must lie in 1..{t.n - 1}, got {k}")
    phi = sigma(m)[1]
    if phi == t.n - k:
        out = F_tilde(m)
    elif phi == t.n - k - 1:
        out = E_tilde(m)
    else:
        raise ValueError(f"element with phi={phi} is outside the domain for k={k}")
    if out is None:
        raise RuntimeError("involution hit the end of a string; invalid domain")
    return out


def rule_weight_by_rules(rs, x):
    """Weight of the id x from the rule fields of ``rs = crystal.rules(t)``,
    each rule adding [f applies] - [e applies] per column."""
    return tuple((x & m1 == pf1) - (x & m1 == pe1) + (x & m2 == pf2) - (x & m2 == pe2)
                 for m1, pf1, pe1, m2, pf2, pe2 in rs)


def text_by_format(t: AffineType, x: int) -> str:
    """Display form of the id x, from the binary form of each column."""
    n = t.n
    width = f"0{n}b"
    # a column's binary form lists bit n-1 (row 1-bar) first; reversed, it
    # lists its rows from n-bar down to 1-bar
    col1 = format(x & ((1 << n) - 1), width)[::-1]
    if t.doubled:
        return "/".join(map(str.__add__, col1, format(x >> n, width)[::-1]))
    return "/".join(col1)


def component_by_steps(t: AffineType, x: int) -> crystal.CrystalGraph:
    """Closure of the id x, one ``step_f`` and one ``step_e`` call per rule
    and vertex."""
    seen = {x}
    todo = [x]
    edges = []
    while todo:
        c = todo.pop()
        for i, rule in enumerate(crystal.rules(t)):
            y = crystal.step_f(rule, c)
            if y is not None:
                edges.append((c, y, i))
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
            y = crystal.step_e(rule, c)
            if y is not None and y not in seen:
                seen.add(y)
                todo.append(y)
    edges.sort()
    return crystal.CrystalGraph(type=t, vertices=tuple(sorted(seen)), edges=tuple(edges))


def partition_by_union_find(t: AffineType, rs=None) -> theorems.Partition:
    """Components of the ground set under the edges of the rules ``rs`` (all
    of ``crystal.rules(t)`` when None), one ``step_f`` call and one
    ``UnionFind.union`` per edge, numbered in order of their smallest id."""
    elements = crystal.all_elements(t)
    uf = theorems.UnionFind(len(elements))
    if rs is None:
        rs = crystal.rules(t)
    for x in elements:
        for rule in rs:
            y = crystal.step_f(rule, x)
            if y is not None:
                uf.union(x, y)
    number = {}  # union-find root -> component number
    label = array("I", (number.setdefault(uf.find(x), len(number)) for x in elements))
    members = tuple(array("I") for _ in number)
    for x, c in enumerate(label):
        members[c].append(x)
    return theorems.Partition(label=label, members=members)


def is_classically_highest(rs, x: int) -> bool:
    """No classical raising operator (index 1..n of the rules rs) applies."""
    return all(crystal.step_e(rule, x) is None for rule in rs[1:])


def classically_highest_by_steps(rs, ids) -> list:
    """The ids that no classical raising rule of ``rs`` applies to."""
    return [x for x in ids if is_classically_highest(rs, x)]


def isomorphic_components_by_steps(t: AffineType, root1: int, root2: int) -> bool:
    """``theorems.isomorphic_components``, one ``step_f`` and one ``step_e``
    call per rule on each id of the walk."""
    rs = crystal.rules(t)
    match = {root1: root2}
    todo = [root1]
    while todo:
        a = todo.pop()
        b = match[a]
        for rule in rs:
            for step in (crystal.step_f, crystal.step_e):
                x, y = step(rule, a), step(rule, b)
                if (x is None) != (y is None):
                    return False
                if x is None:
                    continue
                if x in match:
                    if match[x] != y:
                        return False
                else:
                    match[x] = y
                    todo.append(x)
    p = theorems.partition_ids(t)
    return len(match) == len(p.class_of(root1)) == len(p.class_of(root2))


def involution_commutes_by_steps(t: AffineType, k: int | None = None):
    """``theorems.verify_involution_commutes``, one ``step_e`` and one
    ``step_f`` call per rule on each member and on its mate."""
    res = theorems.SuiteResult(name="prop46", passed=True)
    ks = theorems.suite_ks("prop46", t, k)
    rs = tuple(enumerate(crystal.rules(t)))
    p = theorems.partition_ids(t)
    for kk in ks:
        members = p.class_of(crystal.v_kl(t, kk, t.n - kk))
        mate = {x: bicrystal.varsigma(t, kk, x) for x in members}
        for x, m in mate.items():
            if m not in mate:
                res.note(f"k={kk}: involution leaves the component at "
                         f"{crystal.text(t, x)}")
                continue
            if m == x:
                res.note(f"k={kk}: fixed point at {crystal.text(t, x)}")
            if mate[m] != x:
                res.note(f"k={kk}: involution not of order two at {crystal.text(t, x)}")
            elif m < x:
                continue
            for i, rule in rs:
                for step in (crystal.step_e, crystal.step_f):
                    a = step(rule, x)
                    lhs = None if a is None else mate[a]
                    b = step(rule, m)
                    if (lhs is None) != (b is None):
                        res.note(f"k={kk}: commutation defined-ness fails at "
                                 f"{crystal.text(t, x)}, i={i}")
                    elif lhs is not None and lhs != b:
                        res.note(f"k={kk}: commutation fails at "
                                 f"{crystal.text(t, x)}, i={i}")
    return res
