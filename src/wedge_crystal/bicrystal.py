"""Commuting row-wise sl_2 structure on two-column binary matrices.

Matrices are integer ids as in :mod:`crystal`, so row j-bar is the bit pair
(n - j, 2n - j).  Each row of a matrix is a two-letter word: [1 0] can be
lowered, [0 1] can be raised, [0 0] and [1 1] are inert.  Reading the rows
from 1-bar up to n-bar and cancelling matched pairs gives the usual
signature rule; the resulting string position sigma = (epsilon, phi) is the
key statistic for the component characterizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import AffineType, DOUBLE, FORK
from .crystal import CrystalGraph


def _row(n: int, j: int) -> int:
    """Both bits of row j-bar of a matrix id."""
    return 1 << (n - j) | 1 << (2 * n - j)


def _signature(n: int, x: int):
    """Surviving raise/lower rows after cancellation.

    Returns (minus_rows, plus_rows): rows whose [0 1] survive (raisable)
    and rows whose [1 0] survive (lowerable), in reading order 1-bar..n-bar.
    Every surviving [0 1] precedes every surviving [1 0], so a [0 1] row
    cancels the latest unmatched [1 0] row, if there is one.
    """
    minus, plus = [], []
    for j in range(1, n + 1):
        a = x >> (n - j) & 1
        b = x >> (2 * n - j) & 1
        if a > b:
            plus.append(j)
        elif b > a:
            if plus:
                plus.pop()
            else:
                minus.append(j)
    return minus, plus


def E_tilde(n: int, x: int):
    """Row-wise raising operator: flips the last surviving [0 1] row."""
    minus, _ = _signature(n, x)
    if not minus:
        return None
    return x ^ _row(n, minus[-1])


def F_tilde(n: int, x: int):
    """Row-wise lowering operator: flips the first surviving [1 0] row."""
    _, plus = _signature(n, x)
    if not plus:
        return None
    return x ^ _row(n, plus[0])


def sigma(n: int, x: int):
    """String position (epsilon, phi) of the matrix x under the row operators.

    Counts what :func:`_signature` collects: only rows whose two bits differ
    take part, visited in reading order, from the top bit of column one.
    """
    col1 = x & ((1 << n) - 1)
    differ = col1 ^ (x >> n)
    eps = phi = 0
    while differ:
        row = 1 << (differ.bit_length() - 1)
        differ ^= row
        if col1 & row:  # [1 0]
            phi += 1
        elif phi:  # [0 1] cancels the latest unmatched [1 0]
            phi -= 1
        else:
            eps += 1
    return (eps, phi)


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


def varsigma(t: AffineType, k: int, x: int) -> int:
    """Order-two symmetry of the shared component of the fork-double types.

    Lowers when the element sits in the longer-phi half, raises otherwise.
    Only defined on the component of the (k, n-k) representative.
    """
    if t.diamond != (FORK, DOUBLE):
        raise ValueError("the involution exists only for fork-plus-double types")
    if not 1 <= k <= t.n - 1:
        raise ValueError(f"k must lie in 1..{t.n - 1}, got {k}")
    phi = sigma(t.n, x)[1]
    if phi == t.n - k:
        out = F_tilde(t.n, x)
    elif phi == t.n - k - 1:
        out = E_tilde(t.n, x)
    else:
        raise ValueError(f"element with phi={phi} is outside the domain for k={k}")
    if out is None:
        raise RuntimeError("involution hit the end of a string; invalid domain")
    return out


@dataclass
class QuotientGraph:
    """Component modulo the order-two symmetry, as an I-colored digraph.

    Vertices are the orbits, stored as id pairs (plus, minus) with the
    longer-phi member first; the orbit id is the smaller member id.
    """

    type: AffineType
    k: int
    orbits: tuple  # ((plus_id, minus_id), ...)
    edges: tuple  # (src_orbit_id, dst_orbit_id, color)

    @property
    def ids(self):
        return tuple(min(p, q) for p, q in self.orbits)


def quotient_graph(g: CrystalGraph, k: int) -> QuotientGraph:
    """Collapse a component along the involution; asserts well-definedness."""
    t = g.type
    n = t.n
    orbit_of = {}
    orbits = {}
    for x in g.vertices:
        if x in orbit_of:
            continue
        mate = varsigma(t, k, x)
        if mate == x:
            raise RuntimeError("involution has a fixed point; invalid domain")
        plus, minus = (x, mate) if sigma(n, x)[1] == n - k else (mate, x)
        oid = min(x, mate)
        orbits[oid] = (plus, minus)
        orbit_of[x] = oid
        orbit_of[mate] = oid
    edge_map = {}
    for s, d, c in g.edges:
        key = (orbit_of[s], c)
        dst = orbit_of[d]
        if key in edge_map and edge_map[key] != dst:
            raise RuntimeError("quotient edges are not well defined")
        edge_map[key] = dst
    edges = tuple(sorted((s, d, c) for (s, c), d in edge_map.items()))
    ordered = tuple(orbits[oid] for oid in sorted(orbits))
    return QuotientGraph(type=t, k=k, orbits=ordered, edges=edges)
