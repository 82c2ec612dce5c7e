"""Static affine Cartan data for the seven non-exceptional labelings.

Each algebra handled here contains a maximal parabolic of type C_n, so its
Dynkin diagram is a chain of n-1 "middle" nodes with a decorated terminal
node at each end.  A terminal node comes in three shapes:

* ``SINGLE`` - short terminal root (double bond pointing outward),
* ``DOUBLE`` - long terminal root (double bond pointing inward); the Fock
  space realization doubles at such an end,
* ``FORK``   - two terminal nodes hanging off the first chain node.

The pair of end shapes determines the label, the Cartan matrix, marks,
comarks and root normalization.  Everything is tabulated as exact data;
small ranks where the two ends collide get the matrices of the usual
relabeled diagrams.
"""

from __future__ import annotations

from functools import lru_cache

SINGLE = "1"
DOUBLE = "2"
FORK = "11"

END_SHAPES = (SINGLE, DOUBLE, FORK)

B1 = "B_n^(1)"
C1 = "C_n^(1)"
D1 = "D_n^(1)"
A2EVEN = "A_{2n}^(2)"
A2EVEN_DAGGER = "A_{2n}^(2)dagger"
A2ODD = "A_{2n-1}^(2)"
D2 = "D_{n+1}^(2)"

ALL_LABELS = (B1, C1, D1, A2EVEN, A2EVEN_DAGGER, A2ODD, D2)

_DIAMOND = {
    B1: (FORK, SINGLE),
    C1: (DOUBLE, DOUBLE),
    D1: (FORK, FORK),
    A2EVEN: (SINGLE, DOUBLE),
    A2EVEN_DAGGER: (DOUBLE, SINGLE),
    A2ODD: (FORK, DOUBLE),
    D2: (SINGLE, SINGLE),
}
_LABEL_OF_DIAMOND = {v: k for k, v in _DIAMOND.items()}

_CLI_TOKEN = {
    B1: "B1",
    C1: "C1",
    D1: "D1",
    A2EVEN: "A2even",
    A2EVEN_DAGGER: "A2evenDagger",
    A2ODD: "A2odd",
    D2: "D2",
}

_ALIASES = {}
for _label, _token in _CLI_TOKEN.items():
    _ALIASES[_label] = _label
    _ALIASES[_token] = _label
_ALIASES["A_{2n}^(2)†"] = A2EVEN_DAGGER
_ALIASES["A_{2n}^{(2)}dagger"] = A2EVEN_DAGGER
_ALIASES["A_{2n}^{(2)}"] = A2EVEN
_ALIASES["A_{2n-1}^{(2)}"] = A2ODD
_ALIASES["B_n^{(1)}"] = B1
_ALIASES["C_n^{(1)}"] = C1
_ALIASES["D_n^{(1)}"] = D1
_ALIASES["D_{n+1}^{(2)}"] = D2


class AffineType:
    """One of the seven labelings, at a concrete rank n >= 2.

    Immutable, and equal and hashed by (label, n), so it keys the caches.
    """

    __slots__ = ("label", "n")

    def __init__(self, label: str, n: int):
        if label not in _DIAMOND:
            raise ValueError(f"unknown label {label!r}")
        if n < 2:
            raise ValueError(f"rank must be at least 2, got {n}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not AffineType:
            return NotImplemented
        return self.label == other.label and self.n == other.n

    def __hash__(self):
        return hash((self.label, self.n))

    def __reduce__(self):
        return AffineType, (self.label, self.n)

    def __repr__(self):
        return f"AffineType(label={self.label!r}, n={self.n})"

    @property
    def diamond(self) -> tuple[str, str]:
        return _DIAMOND[self.label]

    @property
    def end0(self) -> str:
        return _DIAMOND[self.label][0]

    @property
    def end_n(self) -> str:
        return _DIAMOND[self.label][1]

    @property
    def doubled(self) -> bool:
        """True when either end requires the doubled module / matrix crystal."""
        return DOUBLE in _DIAMOND[self.label]

    @property
    def cli_token(self) -> str:
        return _CLI_TOKEN[self.label]

    def __str__(self):
        return f"{self.label}[n={self.n}]"


def _parse_diamond(text: str):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 2 or not all(p in END_SHAPES for p in parts):
        return None
    return tuple(parts)


def from_label(label: str, n: int) -> AffineType:
    """Resolve a label (Kac form, CLI token, or end-shape pair) at rank n."""
    key = label.strip()
    if key in _ALIASES:
        return AffineType(_ALIASES[key], n)
    pair = _parse_diamond(key)
    if pair is not None:
        if pair not in _LABEL_OF_DIAMOND:
            raise ValueError(f"no labeling has end shapes {pair}")
        return AffineType(_LABEL_OF_DIAMOND[pair], n)
    raise ValueError(f"unknown label {label!r}")


class CartanData:
    """Cartan matrix and normalization data for one (label, n)."""

    __slots__ = ("type", "a", "marks", "comarks", "norms", "d", "qi_exp")

    def __init__(self, type, a, marks, comarks, norms, d, qi_exp):
        self.type = type
        self.a = a  # Cartan matrix rows, tuple of tuples of int
        self.marks = marks
        self.comarks = comarks
        self.norms = norms  # (alpha_i, alpha_i), as ints
        self.d = d  # qs = q^(1/d)
        self.qi_exp = qi_exp  # q_i = qs^qi_exp[i]


def _edge(a, i, j, aij, aji):
    a[i][j] = aij
    a[j][i] = aji


# end shape -> (distance from the end node to its neighbour, a_end,nb, a_nb,end)
_END_EDGE = {SINGLE: (1, -2, -1), DOUBLE: (1, -1, -2), FORK: (2, -1, -1)}


def _cartan_matrix(d0: str, dn: str, n: int):
    a = [[2 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    for i in range(1, n - 1):
        _edge(a, i, i + 1, -1, -1)
    if n == 2 and d0 == FORK:
        # the fork wraps onto the opposite end; nodes 0 and 1 become symmetric
        if dn == SINGLE:
            _edge(a, 0, 2, -1, -2)
            _edge(a, 1, 2, -1, -2)
        elif dn == DOUBLE:
            _edge(a, 0, 2, -2, -1)
            _edge(a, 1, 2, -2, -1)
        else:  # FORK at both ends of a rank-2 diagram degenerates
            _edge(a, 0, 2, -2, -2)
        return tuple(tuple(r) for r in a)
    if n == 3 and d0 == FORK and dn == FORK:
        # both forks share the chain; the diagram closes into a 4-cycle
        for i, j in ((0, 2), (1, 2), (1, 3), (0, 3)):
            _edge(a, i, j, -1, -1)
        return tuple(tuple(r) for r in a)
    # end n is end 0 seen from the other side
    for i, shape, step in ((0, d0, 1), (n, dn, -1)):
        dist, a_end, a_nb = _END_EDGE[shape]
        _edge(a, i, i + step * dist, a_end, a_nb)
    return tuple(tuple(r) for r in a)


def _marks(label: str, n: int):
    if label == B1:
        return (1, 1) + (2,) * (n - 1)
    if label == C1:
        return (1,) + (2,) * (n - 1) + (1,)
    if label == D1:
        if n == 2:
            return (1, 0, 1)
        return (1, 1) + (2,) * (n - 3) + (1, 1)
    if label == A2EVEN:
        return (2,) * n + (1,)
    if label == A2EVEN_DAGGER:
        return (1,) + (2,) * n
    if label == A2ODD:
        return (1, 1) + (2,) * (n - 2) + (1,)
    if label == D2:
        return (1,) * (n + 1)
    raise ValueError(label)


def _comarks(label: str, n: int):
    if label == B1:
        return (1, 1) + (2,) * (n - 2) + (1,)
    if label == C1:
        return (1,) * (n + 1)
    if label == D1:
        return _marks(D1, n)
    if label == A2EVEN:
        return (1,) + (2,) * n
    if label == A2EVEN_DAGGER:
        return (2,) * n + (1,)
    if label == A2ODD:
        return (1, 1) + (2,) * (n - 2) + (2,)
    if label == D2:
        return (1,) + (2,) * (n - 1) + (1,)
    raise ValueError(label)


@lru_cache(maxsize=None)
def cartan_data(t: AffineType) -> CartanData:
    label, n = t.label, t.n
    a = _cartan_matrix(t.end0, t.end_n, n)
    marks = _marks(label, n)
    comarks = _comarks(label, n)
    # marks lie in {0, 1, 2}, so every norm 2 * comark / mark is an integer
    norms = []
    for i in range(n + 1):
        if marks[i]:
            norm, rem = divmod(2 * comarks[i], marks[i])
            assert not rem
            norms.append(norm)
        else:
            # isolated node of the degenerate rank-2 double-fork diagram
            norms.append(2)
    # q_i = q^(norm / 2), so qs = q^(1/2) as soon as one norm is odd
    d = 2 if any(nu % 2 for nu in norms) else 1
    qi_exp = tuple(d * nu // 2 for nu in norms)
    return CartanData(
        type=t,
        a=a,
        marks=marks,
        comarks=comarks,
        norms=tuple(norms),
        d=d,
        qi_exp=qi_exp,
    )


def fundamental_weight_cl(t: AffineType, k: int):
    """The classical projection of the k-th level zero fundamental weight.

    Returned as the vector of coroot pairings over the full index set.
    For k = 0 this is the zero weight.
    """
    if not 0 <= k <= t.n:
        raise ValueError(f"k must lie in 0..{t.n}, got {k}")
    vec = [0] * (t.n + 1)
    if k == 0:
        return tuple(vec)
    cd = cartan_data(t)
    if t.label == A2EVEN_DAGGER and k == t.n:
        vec[t.n] = 2
        vec[0] = -1
        return tuple(vec)
    ratio, rem = divmod(cd.comarks[k], cd.comarks[0])
    assert not rem
    vec[k] = 1
    vec[0] = -ratio
    return tuple(vec)
