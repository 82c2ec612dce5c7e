"""Commuting row-wise sl_2 structure on two-column binary matrices.

Matrices are integer ids as in :mod:`crystal`, so row j-bar is the bit pair
(n - j, 2n - j).  Each row of a matrix is a two-letter word: [1 0] can be
lowered, [0 1] can be raised, [0 0] and [1 1] are inert.  Reading the rows
from 1-bar up to n-bar and cancelling matched pairs gives the usual
signature rule; the resulting string position sigma = (epsilon, phi) is the
key statistic for the component characterizations.
"""

from __future__ import annotations

from .cartan import AffineType, DOUBLE, FORK
from .crystal import CrystalGraph


def _signature(n: int, x: int):
    """One reading of the rows of x: (epsilon, phi, raise_row, lower_row).

    Only rows whose two bits differ take part, visited in reading order from
    the top bit of column one.  A [0 1] row cancels the latest unmatched
    [1 0] row, if there is one, so every surviving [0 1] precedes every
    surviving [1 0].  raise_row is the column-one bit of the last surviving
    [0 1] row and lower_row that of the first surviving [1 0] row, 0 when
    there is none.
    """
    col1 = x & ((1 << n) - 1)
    differ = col1 ^ (x >> n)
    eps = phi = raise_row = lower_row = 0
    while differ:
        row = 1 << (differ.bit_length() - 1)
        differ ^= row
        if col1 & row:  # [1 0]
            if not phi:  # starts a new run of unmatched [1 0] rows
                lower_row = row
            phi += 1
        elif phi:
            phi -= 1
        else:
            eps += 1
            raise_row = row
    # a run cancelled back to zero leaves no surviving [1 0] row
    return eps, phi, raise_row, lower_row if phi else 0


def _flip(n: int, x: int, row: int):
    """x with the two bits of the given row swapped, or None for row 0."""
    return x ^ (row | row << n) if row else None


def E_tilde(n: int, x: int):
    """Row-wise raising operator: flips the last surviving [0 1] row."""
    return _flip(n, x, _signature(n, x)[2])


def F_tilde(n: int, x: int):
    """Row-wise lowering operator: flips the first surviving [1 0] row."""
    return _flip(n, x, _signature(n, x)[3])


def sigma(n: int, x: int):
    """String position (epsilon, phi) of the matrix x under the row operators."""
    return _signature(n, x)[:2]


def sigmas(n: int, ids) -> list:
    """:func:`sigma` of each of ``ids``, in their order.

    Like the list kernels of :mod:`crystal`, it takes a sequence of ids.
    """
    return [_signature(n, x)[:2] for x in ids]


def sigma_by_strings(n: int, x: int):
    """Same statistic computed by iterating the operators (test oracle)."""
    eps = 0
    y = E_tilde(n, x)
    while y is not None:
        eps += 1
        y = E_tilde(n, y)
    phi = 0
    y = F_tilde(n, x)
    while y is not None:
        phi += 1
        y = F_tilde(n, y)
    return (eps, phi)


def sigma_closed(n: int, x: int):
    """Closed prefix/suffix-maximum formulas for the string position."""
    rows = [(x >> (n - j) & 1, x >> (2 * n - j) & 1) for j in range(1, n + 1)]
    lower = [int(a > b) for a, b in rows]  # [1 0] rows, reading order
    raise_ = [int(b > a) for a, b in rows]  # [0 1] rows
    eps = max([0] + [sum(raise_[:k]) - sum(lower[:k - 1]) for k in range(1, n + 1)])
    phi = max([0] + [sum(lower[k - 1:]) - sum(raise_[k:]) for k in range(1, n + 1)])
    return (eps, phi)


def _check_involution(t: AffineType, k: int):
    if t.diamond != (FORK, DOUBLE):
        raise ValueError("the involution exists only for fork-plus-double types")
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must lie in 1..{t.n - 1}, got {k}")


def _mate(n: int, k: int, x: int):
    """(varsigma of x, phi of x), from one reading of the signature."""
    _, phi, raise_row, lower_row = _signature(n, x)
    if phi == n - k:
        row = lower_row
    elif phi == n - k - 1:
        row = raise_row
    else:
        raise ValueError(f"element with phi={phi} is outside the domain for k={k}")
    if not row:
        raise RuntimeError("involution hit the end of a string; invalid domain")
    return _flip(n, x, row), phi


def varsigma(t: AffineType, k: int, x: int) -> int:
    """Order-two symmetry of the shared component of the fork-double types.

    Lowers when the element sits in the longer-phi half, raises otherwise.
    Only defined on the component of the (k, n-k) representative.
    """
    _check_involution(t, k)
    return _mate(t.n, k, x)[0]


def varsigmas(t: AffineType, k: int, ids) -> list:
    """varsigma of each of ``ids``, in their order; the type and k are
    checked once for the whole list."""
    _check_involution(t, k)
    n = t.n
    return [_mate(n, k, x)[0] for x in ids]


class QuotientGraph:
    """Component modulo the order-two symmetry, as an I-colored digraph.

    Vertices are the orbits, stored as id pairs (plus, minus) with the
    longer-phi member first; the orbit id is the smaller member id.
    """

    __slots__ = ("orbits", "edges")

    def __init__(self, orbits: tuple, edges: tuple):
        self.orbits = orbits  # ((plus_id, minus_id), ...)
        self.edges = edges  # (src_orbit_id, dst_orbit_id, color)

    @property
    def ids(self):
        return tuple(min(p, q) for p, q in self.orbits)


def quotient_graph(g: CrystalGraph, k: int) -> QuotientGraph:
    """Collapse a component along the involution; asserts well-definedness."""
    t = g.type
    n = t.n
    _check_involution(t, k)
    orbit_of = {}
    orbits = {}
    for x in g.vertices:
        if x in orbit_of:
            continue
        mate, phi = _mate(n, k, x)
        if mate == x:
            raise RuntimeError("involution has a fixed point; invalid domain")
        plus, minus = (x, mate) if phi == n - k else (mate, x)
        oid = min(x, mate)
        orbits[oid] = (plus, minus)
        orbit_of[x] = oid
        orbit_of[mate] = oid
    edge_map = {}
    for s, d, c in g.edges:
        dst = orbit_of[d]
        if edge_map.setdefault((orbit_of[s], c), dst) != dst:
            raise RuntimeError("quotient edges are not well defined")
    edges = tuple(sorted((s, d, c) for (s, c), d in edge_map.items()))
    ordered = tuple(orbits[oid] for oid in sorted(orbits))
    return QuotientGraph(orbits=ordered, edges=edges)
