"""Exhaustive verification suites over the full crystal ground sets.

Every suite enumerates the whole state space (4^n matrices or 2^n
vectors), checks one structural statement exactly, and reports pass/fail
plus a machine-readable discrepancy list.  Connectivity questions are
settled by union-find over all operator edges, independently of the BFS
component builder, so the two implementations cross-check each other.

Every pass steps ids through the tables that ``crystal.steps`` compiles
from ``crystal.step_e``/``step_f``: the partition is one union-find sweep per
rule on a flat parent list, visiting only the ids a lowering step applies
to, and the walks over a component's members read the same tables.  The
classically-highest filter steps one id at a time; every statement that a
map is a crystal morphism (two components of one k isomorphic, the
order-two symmetry commuting with the operators) is one call of
:func:`check_morphism`, which steps an id and its image at once and names
the first step on which they disagree.
:class:`UnionFind` stays for the block search of ``fock.kashiwara_operators``.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import lru_cache

from . import bicrystal, crystal
from .cartan import AffineType, DOUBLE, FORK, SINGLE, fundamental_weight_cl


# the entry of an id-indexed image array (the mates of shared_mates, the map
# that check_morphism grows) at an id that has no image
UNSET = 0xFFFFFFFF


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


class SuiteResult:
    """A suite's verdict, its discrepancy messages and its statistics."""

    __slots__ = ("name", "passed", "discrepancies", "stats")

    def __init__(self, name: str, passed: bool):
        self.name = name
        self.passed = passed
        self.discrepancies = []
        self.stats = {}

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


class Partition:
    """The components of a ground set, numbered in order of their smallest id;
    equal when label and members are."""

    __slots__ = ("label", "members", "mates")

    def __init__(self, label: array, members: tuple):
        self.label = label  # id -> component number
        self.members = members  # component number -> its ids, increasing
        # k -> the table of shared_mates, filled on first use
        self.mates = {}

    def __eq__(self, other):
        if other.__class__ is not Partition:
            return NotImplemented
        return self.label == other.label and self.members == other.members

    def class_of(self, x: int) -> array:
        return self.members[self.label[x]]


@lru_cache(maxsize=2)  # one type's full and classical partitions
def partition_ids(t: AffineType, rs=None) -> Partition:
    """Union-find closure of the full ground set under the operator edges of
    the rules ``rs`` (all of ``crystal.rules(t)`` when None).

    One sweep per rule on a flat parent list, over the ids that the rule
    lowers: for each masked value ``sub`` with a step in the rule's table,
    the ids ``sub | y`` for every submask y of the bits outside the mask.
    Roots are found by path halving and the larger root is linked under the
    smaller, so every root is the smallest id of its set and every id's
    parent is no larger than the id.

    Computed once and shared by every suite; callers must not mutate it.
    """
    if rs is None:
        rs = crystal.rules(t)
    size = crystal.ground_size(t)
    parent = list(range(size))
    for rule in rs:
        mask, f, _ = crystal.steps(rule)
        rest = (size - 1) & ~mask
        for sub, flip in f.items():
            if not flip:
                continue
            y = 0
            while True:
                x = sub | y
                z = x ^ flip
                # x and z become their roots; the next x comes from sub | y
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[z] != z:
                    parent[z] = z = parent[parent[z]]
                if x < z:
                    parent[z] = x
                elif z < x:
                    parent[x] = z
                y = (y - rest) & rest
                if not y:
                    break
    # the parent list turns into the component numbers in place, in id order:
    # a root takes the next number, any other id its parent's, which is
    # smaller and so already numbered
    count = 0
    for x in range(size):
        p = parent[x]
        if p == x:
            parent[x] = count
            count += 1
        else:
            parent[x] = parent[p]
    label = array("I", parent)
    members = tuple(array("I") for _ in range(count))
    for x, c in enumerate(label):
        members[c].append(x)
    return Partition(label=label, members=members)


def shared_mates(t: AffineType, k: int) -> array:
    """varsigma on the shared component of (k, n - k) of the fork-plus-double
    type, as an array indexed by id whose entries at that component's members
    are their mates.  The entry is ``UNSET`` at a member outside varsigma's
    domain or whose step runs off the end of a string (see
    :func:`note_unmated`), and at every id outside the shared components.

    The shared components are disjoint, so one array of ground-set size serves
    every k.  It is kept on the memoised partition and filled one component at
    a time on first use, so that ``prop46``, ``thm58`` and ``cor57`` compute
    each mate once; callers must not mutate it.  A faulty crystal in which two
    ks share a component gives the later k an array of its own, so that no k
    reads another's mates.
    """
    p = partition_ids(t)
    mates = p.mates
    if k not in mates:
        n = t.n
        c = p.label[crystal.v_kl(t, k, n - k)]
        if mates and all(p.label[crystal.v_kl(t, kk, n - kk)] != c for kk in mates):
            mate = next(iter(mates.values()))  # the array of the first k
        else:
            mate = array("I", [UNSET]) * len(p.label)
        members = p.members[c]
        for x, m in zip(members, bicrystal.varsigmas(t, k, members)):
            if m is not None:
                mate[x] = m
        mates[k] = mate
    return mates[k]


def note_unmated(res: SuiteResult, t: AffineType, k: int, ids, mate) -> bool:
    """Note each of ``ids`` whose entry in the mate table is ``UNSET``, with
    its text and phi (phi outside n - k and n - k - 1 puts it outside the
    domain, otherwise its step runs off a string); True when there is none."""
    clean = True
    for x in ids:
        if mate[x] == UNSET:
            res.note(f"k={k}: no mate for {crystal.text(t, x)} "
                     f"(phi={bicrystal.sigma(t.n, x)[1]})")
            clean = False
    return clean


def check_morphism(src, dst, image, todo):
    """Check that the map ``image`` commutes with every raising and lowering
    step, growing it by a walk; the first witness, or None.

    ``src`` and ``dst`` are the ``crystal.steps`` tables (mask, f, e) of the
    two sides, index by index.  ``image`` is id-indexed, ``UNSET`` where an
    id has no image yet, and ``todo`` lists the ids to visit, each with an
    image.  Each visited id a and its image b take every step, e before f
    at each index: the step must apply to both or to neither, and where it
    takes a to x and b to y, x must have the image y.  An x without an image
    gets y and joins ``todo``, so ``todo`` ends as every id visited; nothing
    else is written into ``image``.

    The witness is (a, b, i, op, x, y): both ids, the index, "e" or "f", and
    each side's target, None where the step does not apply.
    """
    ops = []
    for i, ((ma, fa, ea), (mb, fb, eb)) in enumerate(zip(src, dst)):
        ops.append((i, "e", ma, ea, mb, eb))
        ops.append((i, "f", ma, fa, mb, fb))
    for a in todo:  # the list grows as the walk goes
        b = image[a]
        for i, op, ma, ta, mb, tb in ops:
            da = ta[a & ma]
            db = tb[b & mb]
            if da and db:
                x = a ^ da
                y = b ^ db
                z = image[x]
                if z == y:
                    continue
                if z == UNSET:
                    image[x] = y
                    todo.append(x)
                    continue
            elif not (da or db):
                continue
            return a, b, i, op, a ^ da if da else None, b ^ db if db else None
    return None


def witness_text(t: AffineType, witness, image) -> str:
    """A witness of :func:`check_morphism` in words, with the image that the
    map already gave the source side's target when both steps apply."""
    a, b, i, op, x, y = witness
    lhs = rhs = "undefined"
    if x is not None:
        lhs = crystal.text(t, x)
        if y is not None:
            lhs += f" with image {crystal.text(t, image[x])}"
    if y is not None:
        rhs = crystal.text(t, y)
    return (f"{op}_{i} takes {crystal.text(t, a)} to {lhs}, "
            f"and its image {crystal.text(t, b)} to {rhs}")


def classically_highest(rs, ids) -> list:
    """The ids of ``ids``, in order, that no classical raising rule (index
    1..n of the rules ``rs``) applies to, as one filter per rule."""
    out = list(ids)
    for rule in rs[1:]:
        mask, _, e = crystal.steps(rule)
        out = [x for x in out if not e[x & mask]]
    return out


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


def decomposition_report(t: AffineType) -> dict:
    """The document ``decompose`` prints: one row per component, keyed by
    (k, l) on matrices and ("spin", k) on vectors."""
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
        highest = classically_highest(rs, members)
        split = None  # [|plus half|, |minus half|] of a shared component
        if t.diamond == (FORK, DOUBLE) and 0 < key[0] < t.n and key[1] == t.n - key[0]:
            plus = sum(1 for x in members if bicrystal.sigma(t.n, x)[1] == key[1])
            split = [plus, len(members) - plus]
        rows.append({
            "key": list(key),
            "representative": crystal.text(t, rep),
            "rep_id": rep,
            "size": len(members),
            "weight": list(crystal.weight(t, rep)),
            "branching": sorted_labels(classify_weight(t, crystal.weight(t, x))
                                       for x in highest),
            "sigma": list(bicrystal.sigma(t.n, rep)) if t.doubled else None,
            "split": split,
        })
    return {"type": t.label, "n": t.n, "total": sum(r["size"] for r in rows),
            "components": rows}


# the types a suite or a check group can need: a predicate and its description
MATRIX_TYPE = (lambda t: t.doubled, "a matrix-crystal type")
COLUMN_TYPE = (lambda t: not t.doubled, "a single-column type")
FORK_TYPE = (lambda t: t.diamond == (FORK, DOUBLE), "the fork-plus-double type")

# suite -> (its title, the type it needs, how far the top of its k range
# lies below n or None when it takes no k, the function that runs it),
# in the order of the CLI's --suite choices
SUITES = {
    "prop41": ("component partition", MATRIX_TYPE, None, "verify_component_partition"),
    "thm42": ("branching", MATRIX_TYPE, None, "verify_classical_branching"),
    "lem44": ("sigma-range", FORK_TYPE, 1, "verify_sigma_range"),
    "prop46": ("involution", FORK_TYPE, 1, "verify_involution_commutes"),
    "thm58": ("characterization", MATRIX_TYPE, 0, "verify_sigma_characterization"),
    "cor57": ("multiplicity", MATRIX_TYPE, None, "verify_multiplicities"),
    "spin": ("spin", COLUMN_TYPE, None, "verify_spin_decomposition"),
    "deltaword": ("delta-shift", FORK_TYPE, 1, "verify_delta_shift"),
}


def suite_ks(name: str, t: AffineType, k: int | None = None) -> list:
    """The k values the named suite runs over on ``t`` (all of its range
    when ``k`` is None).

    Raises ValueError, before anything is enumerated, when the suite does
    not apply to the type or ``k`` lies outside its range.
    """
    title, (applies, kind), gap, _ = SUITES[name]
    if not applies(t):
        raise ValueError(f"{title} suite needs {kind}")
    if gap is None:
        return []
    top = t.n - gap
    if k is not None and not 1 <= k <= top:
        raise ValueError(f"k must lie in 1..{top}, got {k}")
    return list(range(1, top + 1)) if k is None else [k]


def select_suites(t: AffineType, suite: str, k: int | None) -> list:
    """The suites that ``suite`` names on ``t``, in the order they run: the
    one named, or for "all" every suite whose type predicate holds, matrix
    suites before fork-plus-double ones.

    Raises ValueError, before anything is enumerated, when a suite does not
    apply to the type, ``k`` lies outside a suite's range, or a suite named
    alone takes no k; under "all", ``k`` bounds only the suites that take one.
    """
    if suite == "all":
        names = sorted((name for name, (_, (applies, _), _, _) in SUITES.items()
                        if applies(t)),
                       key=lambda name: SUITES[name][1] is FORK_TYPE)
    else:
        names = [suite]
    for name in names:
        suite_ks(name, t, k)
    if suite != "all" and k is not None and SUITES[suite][2] is None:
        raise ValueError(f"the {SUITES[suite][0]} suite takes no --k")
    return names


def run_suite(name: str, t: AffineType, k: int | None) -> SuiteResult:
    """Run the named suite, looked up by its function's module attribute."""
    _, _, gap, func = SUITES[name]
    run = globals()[func]
    return run(t) if gap is None else run(t, k)


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
        highest = classically_highest(rs, members)
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
    """The order-two symmetry commutes with every operator on its domain:
    one :func:`check_morphism` walk with the mates as the map, from the
    smaller member of each orbit."""
    res = SuiteResult(name="prop46", passed=True)
    ks = suite_ks("prop46", t, k)
    tables = [crystal.steps(rule) for rule in crystal.rules(t)]
    p = partition_ids(t)
    label = p.label
    for kk in ks:
        c = label[crystal.v_kl(t, kk, t.n - kk)]
        mate = shared_mates(t, kk)
        members = p.members[c]
        if not note_unmated(res, t, kk, members, mate):
            # a step of a member stays in the component, so with a mate
            # missing there the walk would write one into the shared table
            continue
        todo = []
        for x in members:
            m = mate[x]
            if label[m] != c:
                res.note(f"k={kk}: involution leaves the component at "
                         f"{crystal.text(t, x)}")
                continue
            if m == x:
                res.note(f"k={kk}: fixed point at {crystal.text(t, x)}")
            if mate[m] != x:
                res.note(f"k={kk}: involution not of order two at {crystal.text(t, x)}")
            if x < m:
                # with order two, the statement at m is the one at x
                todo.append(x)
        witness = check_morphism(tables, tables, mate, todo)
        if witness:
            res.note(f"k={kk}: commutation fails: {witness_text(t, witness, mate)}")
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
            pair, holds = (kk, n - kk), lambda s: s[1] == n - kk and s[0] % 2 == 0
        level = {x for s, ids in by_sigma.items() if holds(s) for x in ids}
        rep = crystal.v_kl(t, *pair)
        members = p.class_of(rep)
        if d == (FORK, DOUBLE) and kk < n:
            # the shared component holds the level set and its mates; an id
            # of the level set outside the component already makes the two
            # differ, so only the mates of members are read
            mate, label, c = shared_mates(t, kk), p.label, p.label[rep]
            note_unmated(res, t, kk, members, mate)
            level |= {mate[x] for x in level if label[x] == c}
            level.discard(UNSET)
        comp = set(members)
        if comp != level:
            res.note(f"k={kk}: component has {len(comp)} elements, level set "
                     f"{len(level)}; difference {sorted(comp ^ level)[:4]}")
    return res


def verify_multiplicities(t: AffineType) -> SuiteResult:
    """Count how often each irreducible crystal shows up in the ground set."""
    res = SuiteResult(name="cor57", passed=True)
    suite_ks("cor57", t)
    n = t.n
    d = t.diamond
    pairs = h_diamond(t)
    if d == (DOUBLE, DOUBLE):
        p = partition_ids(t)
        rs = crystal.rules(t)
        tables = [crystal.steps(rule) for rule in rs]
        for k in range(1, n + 1):
            ls = [l for (kk, l) in pairs if kk == k]
            target = fundamental_weight_cl(t, k)
            roots = []
            for l in ls:
                # the members of the target weight, narrowed one rule's
                # weight table at a time (at C1 n = 9 the first rule keeps
                # about a quarter of a component, the fourth under 3 %)
                hits = p.class_of(crystal.v_kl(t, k, l))
                for (mask, table), value in zip(rs.weights, target):
                    hits = [x for x in hits if table[x & mask] == value]
                if len(hits) != 1:
                    res.note(f"(k,l)=({k},{l}): weight multiplicity "
                             f"{len(hits)} at the extremal weight")
                roots.append(hits[0] if hits else None)
            root0 = roots[0]
            for l, r in zip(ls[1:], roots[1:]):
                if r is None or root0 is None:
                    continue
                # the components of one k are isomorphic, matched from their
                # extremal-weight elements: a walk from root0 that covers both
                image = array("I", [UNSET]) * len(p.label)
                image[root0] = r
                todo = [root0]
                witness = check_morphism(tables, tables, image, todo)
                head = f"k={k}: component at l={l} not isomorphic to l={ls[0]}"
                if witness:
                    res.note(f"{head}: {witness_text(t, witness, image)}")
                    continue
                size0, size = len(p.class_of(root0)), len(p.class_of(r))
                if not len(todo) == size0 == size:
                    res.note(f"{head}: the walk from {crystal.text(t, root0)} "
                             f"matched {len(todo)} ids, the components have "
                             f"{size0} and {size}")
        res.stats["multiplicities"] = {k: n - k + 1 for k in range(n + 1)}
    elif d in ((SINGLE, DOUBLE), (DOUBLE, SINGLE)):
        res.stats["multiplicities"] = dict(Counter(k for k, _ in pairs))
    else:  # fork-plus-double
        p = partition_ids(t)
        for l in (n - 1, n):
            size = len(p.class_of(crystal.v_kl(t, 0, l)))
            if size != 1:
                res.note(f"component of (0,{l}) has size {size}")
        mult = {0: 2, n: 1}
        for k in range(1, n):
            members = p.class_of(crystal.v_kl(t, k, n - k))
            mate = shared_mates(t, k)
            note_unmated(res, t, k, members, mate)
            orbits = {min(x, mate[x]) for x in members}
            if 2 * len(orbits) != len(members):
                res.note(f"k={k}: quotient size {len(orbits)} does not halve "
                         f"{len(members)}")
            mult[k] = 2
        res.stats["multiplicities"] = mult
    return res


def verify_spin_decomposition(t: AffineType) -> SuiteResult:
    """Single-column ground set: component count and weight multiplicities."""
    res = SuiteResult(name="spin", passed=True)
    suite_ks("spin", t)
    n = t.n
    rs = crystal.rules(t)
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
    for ids in p.members:
        weights = [crystal.rule_weight(rs, i) for i in ids]
        if len(set(weights)) != len(weights):
            res.note(f"repeated weight inside component of {crystal.text(t, ids[0])}")
    reps = [top] if expected == 1 else [top, second]
    for k, rep in zip((n, n - 1), reps):
        w = crystal.rule_weight(rs, rep)
        if w != fundamental_weight_cl(t, k):
            res.note(f"weight of the k={k} representative is {w}")
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
