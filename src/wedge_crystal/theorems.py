"""Exhaustive verification suites over the full crystal ground sets.

Every suite enumerates the whole state space (4^n matrices or 2^n
vectors), checks one structural statement exactly, and reports pass/fail
plus a machine-readable discrepancy list.  Connectivity questions are
settled by union-find over all operator edges, independently of the BFS
component builder, so the two implementations cross-check each other.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from . import bicrystal, crystal
from .cartan import AffineType, DOUBLE, FORK, SINGLE, fundamental_weight_cl


class UnionFind:
    """Disjoint sets over 0..size-1 with path compression."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while x != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class SuiteResult:
    name: str
    passed: bool
    discrepancies: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def note(self, msg: str):
        self.discrepancies.append(msg)
        self.passed = False


def h_diamond(t: AffineType):
    """Index set of component representatives for the doubled types."""
    if not t.doubled:
        raise ValueError(f"{t} has a single-column crystal; no (k,l) index set")
    n = t.n
    d = t.diamond
    if d == (DOUBLE, DOUBLE):
        pairs = [(k, l) for k in range(n + 1) for l in range(n - k + 1)]
    elif d == (SINGLE, DOUBLE):
        pairs = [(k, n - k) for k in range(n + 1)]
    elif d == (DOUBLE, SINGLE):
        pairs = [(k, 0) for k in range(n + 1)]
    else:  # (FORK, DOUBLE)
        pairs = [(k, n - k) for k in range(n + 1)] + [(0, n - 1)]
    return sorted(pairs)


@dataclass(frozen=True)
class Partition:
    """The components of a ground set, numbered in order of their smallest id."""

    label: array  # id -> component number
    members: tuple  # component number -> its ids, increasing

    def class_of(self, x: int) -> array:
        return self.members[self.label[x]]


@lru_cache(maxsize=2)  # one type's full and classical partitions
def partition_ids(t: AffineType, rs=None) -> Partition:
    """Union-find closure of the full ground set under the operator edges of
    the rules ``rs`` (all of ``crystal.rules(t)`` when None).

    Computed once and shared by every suite; callers must not mutate it.
    """
    elements = crystal.all_elements(t)
    uf = UnionFind(len(elements))
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
    return Partition(label=label, members=members)


def classify_weight(t: AffineType, w) -> int | None:
    """Match a weight vector against the classical fundamental weights."""
    for k in range(t.n + 1):
        if tuple(w) == fundamental_weight_cl(t, k):
            return k
    return None


def sorted_labels(labels):
    """Branching labels in numeric order, unmatched (None) labels last."""
    return sorted(labels, key=lambda lab: (lab is None, lab or 0))


def expected_branching(t: AffineType, k: int, l: int):
    """Multiset of classically-highest weight labels inside one component."""
    if k == 0:
        return [0]
    d = t.diamond
    if d in ((DOUBLE, DOUBLE), (DOUBLE, SINGLE)):
        return [k]
    if d == (SINGLE, DOUBLE):
        return list(range(k + 1))
    # fork-plus-double
    if k == t.n:
        return sorted(k - 2 * i for i in range(k // 2 + 1))
    out = []
    for i in range(k // 2 + 1):
        out.extend([k - 2 * i, k - 2 * i])
    return sorted(out)


@dataclass
class ComponentRow:
    key: tuple  # (k, l) for matrices, ("spin", k) for vectors
    rep_id: int
    rep_text: str
    size: int
    weight: tuple
    branching: list
    sigma: tuple | None = None
    split: tuple | None = None  # (|plus half|, |minus half|) where defined


@dataclass
class DecompositionReport:
    type: AffineType
    rows: list
    total: int


def decomposition_report(t: AffineType) -> DecompositionReport:
    p = partition_ids(t)
    rs = crystal.rules(t)
    rows = []
    if t.doubled:
        reps = {key: crystal.v_kl(t, *key) for key in h_diamond(t)}
    else:
        ks = (t.n, t.n - 1) if t.diamond == (FORK, FORK) else (t.n,)
        reps = {("spin", k): crystal.v_spin(t, k) for k in ks}
    for key, rep in reps.items():
        members = p.class_of(rep)
        highest = [x for x in members if crystal.is_classically_highest(rs, x)]
        labels = sorted_labels(classify_weight(t, crystal.weight(t, x))
                               for x in highest)
        sig = bicrystal.sigma(t.n, rep) if t.doubled else None
        split = None
        if t.diamond == (FORK, DOUBLE) and isinstance(key[0], int) and 1 <= key[0] <= t.n - 1 and key[1] == t.n - key[0]:
            k = key[0]
            plus = sum(1 for x in members if bicrystal.sigma(t.n, x)[1] == t.n - k)
            split = (plus, len(members) - plus)
        rows.append(ComponentRow(
            key=key, rep_id=rep, rep_text=crystal.text(t, rep), size=len(members),
            weight=crystal.weight(t, rep), branching=labels, sigma=sig,
            split=split,
        ))
    total = sum(r.size for r in rows)
    return DecompositionReport(type=t, rows=rows, total=total)


# the types a suite can need: a predicate and its description
_MATRIX = (lambda t: t.doubled, "a matrix-crystal type")
_COLUMN = (lambda t: not t.doubled, "a single-column type")
_FORK = (lambda t: t.diamond == (FORK, DOUBLE), "the fork-plus-double type")

# suite -> (its title, the type it needs, how far the top of its k range
# lies below n or None when it takes no k, the function that runs it),
# in the order of the CLI's --suite choices
_DOMAINS = {
    "prop41": ("component partition", _MATRIX, None, "verify_component_partition"),
    "thm42": ("branching", _MATRIX, None, "verify_classical_branching"),
    "lem44": ("sigma-range", _FORK, 1, "verify_sigma_range"),
    "prop46": ("involution", _FORK, 1, "verify_involution_commutes"),
    "thm58": ("characterization", _MATRIX, 0, "verify_sigma_characterization"),
    "cor57": ("multiplicity", _MATRIX, None, "verify_multiplicities"),
    "spin": ("spin", _COLUMN, None, "verify_spin_decomposition"),
    "deltaword": ("delta-shift", _FORK, 1, "verify_delta_shift"),
}


def suite_ks(name: str, t: AffineType, k: int | None = None) -> list:
    """The k values the named suite runs over on ``t`` (all of its range
    when ``k`` is None).

    Raises ValueError, before anything is enumerated, when the suite does
    not apply to the type or ``k`` lies outside its range.
    """
    title, (applies, kind), gap, _ = _DOMAINS[name]
    if not applies(t):
        raise ValueError(f"{title} suite needs {kind}")
    if gap is None:
        return []
    top = t.n - gap
    if k is not None and not 1 <= k <= top:
        raise ValueError(f"k must lie in 1..{top}, got {k}")
    return list(range(1, top + 1)) if k is None else [k]


def verify_component_partition(t: AffineType) -> SuiteResult:
    """The ground set splits into exactly the indexed components."""
    res = SuiteResult(name="prop41", passed=True)
    suite_ks("prop41", t)
    p = partition_ids(t)
    pairs = h_diamond(t)
    labels = {pair: p.label[crystal.v_kl(t, *pair)] for pair in pairs}
    if len(set(labels.values())) != len(pairs):
        res.note("representatives are not in pairwise distinct components")
    count = len(p.members)
    if count != len(pairs):
        res.note(f"{count} components found, expected {len(pairs)}")
    total = sum(len(ids) for ids in p.members)
    if total != 4 ** t.n:
        res.note(f"component sizes sum to {total}, expected {4 ** t.n}")
    res.stats = {
        "components": count,
        "expected": len(pairs),
        "sizes": {str(pair): len(p.members[labels[pair]]) for pair in pairs},
    }
    return res


def verify_classical_branching(t: AffineType) -> SuiteResult:
    """Within each component, the classically-highest weights are as listed."""
    res = SuiteResult(name="thm42", passed=True)
    suite_ks("thm42", t)
    p = partition_ids(t)
    rs = crystal.rules(t)
    # classical edges are a subset of all edges, so the classical partition
    # of the ground set, restricted to a component, is that component's own
    classical = partition_ids(t, rs[1:]).label
    for (k, l) in h_diamond(t):
        members = p.class_of(crystal.v_kl(t, k, l))
        highest = [x for x in members if crystal.is_classically_highest(rs, x)]
        labels = []
        for x in highest:
            lab = classify_weight(t, crystal.weight(t, x))
            if lab is None:
                res.note(f"({k},{l}): highest element {crystal.text(t, x)} "
                         f"has an unexpected weight")
            labels.append(lab)
        labels = sorted_labels(labels)
        if labels != expected_branching(t, k, l):
            res.note(f"({k},{l}): branching {labels} != expected "
                     f"{expected_branching(t, k, l)}")
        comp_roots = {classical[x] for x in members}
        if len(comp_roots) != len(highest):
            res.note(f"({k},{l}): {len(comp_roots)} classical components for "
                     f"{len(highest)} highest elements")
        per = Counter(classical[x] for x in highest)
        if any(c != 1 for c in per.values()) or len(per) != len(comp_roots):
            res.note(f"({k},{l}): classical components and highest elements do not biject")
    return res


def verify_sigma_range(t: AffineType, k: int | None = None) -> SuiteResult:
    """String positions across a shared component stay in the two allowed lanes."""
    res = SuiteResult(name="lem44", passed=True)
    ks = suite_ks("lem44", t, k)
    p = partition_ids(t)
    for kk in ks:
        members = p.class_of(crystal.v_kl(t, kk, t.n - kk))
        allowed = set()
        for i in range(kk // 2 + 1):
            allowed.add((2 * i, t.n - kk))
            allowed.add((2 * i + 1, t.n - kk - 1))
        sig = [bicrystal.sigma(t.n, x) for x in members]
        for x, s in zip(members, sig):
            if s not in allowed:
                res.note(f"k={kk}: sigma{s} of {crystal.text(t, x)} out of range")
        plus = [s for s in sig if s[1] == t.n - kk]
        if any(s[0] % 2 for s in plus):
            res.note(f"k={kk}: odd raise-count in the long-phi half")
        if 2 * len(plus) != len(members):
            res.note(f"k={kk}: halves have sizes {len(plus)} and "
                     f"{len(members) - len(plus)}")
    return res


def verify_involution_commutes(t: AffineType, k: int | None = None) -> SuiteResult:
    """The order-two symmetry commutes with every operator on its domain."""
    res = SuiteResult(name="prop46", passed=True)
    ks = suite_ks("prop46", t, k)
    rs = tuple(enumerate(crystal.rules(t)))
    p = partition_ids(t)
    for kk in ks:
        members = p.class_of(crystal.v_kl(t, kk, t.n - kk))
        # a step of a member stays in the component, so its mate is listed
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


def verify_sigma_characterization(t: AffineType, k: int | None = None) -> SuiteResult:
    """Components coincide with their string-position level sets."""
    res = SuiteResult(name="thm58", passed=True)
    ks = suite_ks("thm58", t, k)
    n = t.n
    p = partition_ids(t)
    by_sigma = {}  # sigma -> the ids with that string position
    for x in crystal.all_elements(t):
        by_sigma.setdefault(bicrystal.sigma(n, x), array("I")).append(x)
    d = t.diamond
    for kk in ks:
        if d == (DOUBLE, DOUBLE):
            pair, holds = (kk, 0), lambda s: s == (n - kk, 0)
        elif d == (SINGLE, DOUBLE):
            pair, holds = (kk, n - kk), lambda s: s[1] == n - kk and 0 <= kk - s[0] <= kk
        elif d == (DOUBLE, SINGLE):
            pair, holds = (kk, 0), lambda s: s[0] == n - kk and s[1] <= kk
        elif kk == n:  # fork-plus-double from here on
            pair, holds = (n, 0), lambda s: s[1] == 0 and s[0] % 2 == 0
        else:
            pair, holds = None, lambda s: s[1] == n - kk and s[0] % 2 == 0
        level = {x for s, ids in by_sigma.items() if holds(s) for x in ids}
        if pair is None:
            g = crystal.component(t, crystal.v_kl(t, kk, n - kk))
            comp_orbits = {frozenset(o) for o in bicrystal.quotient_graph(g, kk).orbits}
            level_orbits = {frozenset((x, bicrystal.varsigma(t, kk, x))) for x in level}
            if comp_orbits != level_orbits:
                res.note(f"k={kk}: orbit sets differ "
                         f"({len(comp_orbits)} vs {len(level_orbits)})")
            continue
        comp = set(p.class_of(crystal.v_kl(t, *pair)))
        if comp != level:
            res.note(f"k={kk}: component has {len(comp)} elements, level set "
                     f"{len(level)}; difference {sorted(comp ^ level)[:4]}")
    return res


def isomorphic_components(g1, g2, root1: int, root2: int) -> bool:
    """Colored-digraph isomorphism by simultaneous BFS from fixed roots."""
    out1, in1 = g1.out_edges(), g1.in_edges()
    out2, in2 = g2.out_edges(), g2.in_edges()
    colors = range(g1.type.n + 1)
    match = {root1: root2}
    queue = [root1]
    while queue:
        a = queue.pop(0)
        b = match[a]
        for c in colors:
            for table1, table2 in ((out1, out2), (in1, in2)):
                x = table1.get((a, c))
                y = table2.get((b, c))
                if (x is None) != (y is None):
                    return False
                if x is None:
                    continue
                if x in match:
                    if match[x] != y:
                        return False
                else:
                    match[x] = y
                    queue.append(x)
    if len(match) != len(g1.vertices) or len(g1.vertices) != len(g2.vertices):
        return False
    return True


def verify_multiplicities(t: AffineType) -> SuiteResult:
    """Count how often each irreducible crystal shows up in the ground set."""
    res = SuiteResult(name="cor57", passed=True)
    suite_ks("cor57", t)
    n = t.n
    d = t.diamond
    pairs = h_diamond(t)
    rs = crystal.rules(t)
    if d == (DOUBLE, DOUBLE):
        for k in range(n + 1):
            ls = [l for (kk, l) in pairs if kk == k]
            if len(ls) != n - k + 1:
                res.note(f"k={k}: {len(ls)} components, expected {n - k + 1}")
            if k == 0:
                continue
            graphs = [crystal.component(t, crystal.v_kl(t, k, l)) for l in ls]
            target = fundamental_weight_cl(t, k)
            roots = []
            for g, l in zip(graphs, ls):
                hits = [x for x in g.vertices if crystal.rule_weight(rs, x) == target]
                if len(hits) != 1:
                    res.note(f"(k,l)=({k},{l}): weight multiplicity "
                             f"{len(hits)} at the extremal weight")
                roots.append(hits[0] if hits else None)
            base = graphs[0]
            for g, l, r in zip(graphs[1:], ls[1:], roots[1:]):
                if r is None or roots[0] is None:
                    continue
                if not isomorphic_components(base, g, roots[0], r):
                    res.note(f"k={k}: component at l={l} not isomorphic to l={ls[0]}")
        res.stats["multiplicities"] = {k: n - k + 1 for k in range(n + 1)}
    elif d in ((SINGLE, DOUBLE), (DOUBLE, SINGLE)):
        per_k = {}
        for (k, l) in pairs:
            per_k[k] = per_k.get(k, 0) + 1
        for k, cnt in per_k.items():
            if cnt != 1:
                res.note(f"k={k}: {cnt} components, expected 1")
        res.stats["multiplicities"] = per_k
    else:  # fork-plus-double
        singles = [pair for pair in pairs if pair[0] == 0]
        if sorted(singles) != [(0, n - 1), (0, n)]:
            res.note(f"trivial components are {singles}")
        for (k, l) in singles:
            g = crystal.component(t, crystal.v_kl(t, k, l))
            if len(g.vertices) != 1:
                res.note(f"component of (0,{l}) has size {len(g.vertices)}")
        mult = {0: 2, n: 1}
        for k in range(1, n):
            g = crystal.component(t, crystal.v_kl(t, k, n - k))
            q = bicrystal.quotient_graph(g, k)
            if 2 * len(q.orbits) != len(g.vertices):
                res.note(f"k={k}: quotient size {len(q.orbits)} does not halve "
                         f"{len(g.vertices)}")
            mult[k] = 2
        res.stats["multiplicities"] = mult
    return res


def verify_spin_decomposition(t: AffineType) -> SuiteResult:
    """Single-column ground set: component count and weight multiplicities."""
    res = SuiteResult(name="spin", passed=True)
    suite_ks("spin", t)
    n = t.n
    p = partition_ids(t)
    count = len(p.members)
    expected = 2 if t.diamond == (FORK, FORK) else 1
    if count != expected:
        res.note(f"{count} components, expected {expected}")
    top = crystal.v_spin(t, n)
    second = crystal.v_spin(t, n - 1)
    if expected == 2 and p.label[top] == p.label[second]:
        res.note("the two canonical representatives share a component")
    if expected == 1 and p.label[top] != p.label[second]:
        res.note("expected a single component containing both representatives")
    sizes = sorted(len(ids) for ids in p.members)
    if sum(sizes) != 2 ** n:
        res.note(f"sizes {sizes} do not sum to {2 ** n}")
    for ids in p.members:
        weights = [crystal.weight(t, i) for i in ids]
        if len(set(weights)) != len(weights):
            res.note(f"repeated weight inside component of {crystal.text(t, ids[0])}")
    reps = [top] if expected == 1 else [top, second]
    for k, rep in zip((n, n - 1), reps):
        if crystal.weight(t, rep) != fundamental_weight_cl(t, k):
            res.note(f"weight of the k={k} representative is "
                     f"{crystal.weight(t, rep)}")
    res.stats = {"components": count, "sizes": sizes}
    return res


def verify_delta_shift(t: AffineType, k: int | None = None) -> SuiteResult:
    """The explicit reflection word swaps the two shared representatives."""
    res = SuiteResult(name="deltaword", passed=True)
    for kk in suite_ks("deltaword", t, k):
        word = crystal.delta_word(t, kk)
        va = crystal.v_kl(t, kk, t.n - kk)
        vb = crystal.v_kl(t, kk, t.n - kk - 1)
        try:
            fwd = crystal.weyl_action(t, word, va)
            back = crystal.weyl_action(t, word, vb)
        except RuntimeError as exc:
            res.note(f"k={kk}: {exc}")
            continue
        if fwd != vb:
            res.note(f"k={kk}: word sends {crystal.text(t, va)} to "
                     f"{crystal.text(t, fwd)}, wanted {crystal.text(t, vb)}")
        if back != va:
            res.note(f"k={kk}: word sends {crystal.text(t, vb)} to "
                     f"{crystal.text(t, back)}, wanted {crystal.text(t, va)}")
    return res
