"""Crystal combinatorics on binary vectors and two-column binary matrices.

The ground set is the set of length-n bit vectors (single-column types) or
n x 2 bit matrices (doubled types).  Positions are indexed by the barred
alphabet n-bar < ... < 1-bar; rows are displayed from n-bar (top) down to
1-bar (bottom).  Every element is its integer id, a column-major bitmask:
row j-bar of column one is bit n-j and row j-bar of column two is bit 2n-j.
Text is produced only for display, by :func:`text`.

Raising and lowering operators act per index i in 0..n through a rule
(mask, pf, pe) on one column: f applies when ``x & mask == pf``, e applies
when ``x & mask == pe``, and either one toggles ``mask``.  With
r(j) = 1 << (n - j):

* a middle index moves a bit between adjacent rows of one column:
  mask r(i) | r(i+1), pf = r(i+1), pe = r(i) (the usual sl_n rule);
* a SINGLE end toggles the terminal bit of one column,
* a FORK end toggles the two terminal bits of one column together;
  both have pf = mask, pe = 0 at index 0 and pf = 0, pe = mask at index n;
* a DOUBLE end toggles the full terminal row of the matrix in one step,
  one rule on the whole id.

On matrices the two column rules combine by the tensor product rule.  Every
column string has length at most one, so the rule compares truth values.

That rule is written once, in :func:`step_e` and :func:`step_f`, and
compiled per rule by :func:`steps` into tables that every other reader
steps by: :func:`e_tilde`, :func:`f_tilde` and :func:`weyl_reflection`, the
weights, the component search, the ground-set passes and suite walks of
``theorems``, and the crystal match of ``fock``.

Each per-id quantity has one implementation, a list kernel over a sequence
of ids: :func:`rule_weights`, :func:`texts` and :func:`with_weight`.
:func:`weight` and :func:`text` read it on one id.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import AffineType, DOUBLE, FORK

# A rule is (m1, pf1, pe1, m2, pf2, pe2): the first triple acts on column one
# or on the whole id, the second on column two.  A rule without a second
# column has m2 = 0 and pf2 = pe2 = _NEVER, which no masked value equals.
_NEVER = -1


@lru_cache(maxsize=None)
def rules(t: AffineType) -> Rules:
    """The operator rule of every index i in 0..n, with the weight tables,
    computed once per type and shared by every caller."""
    n = t.n

    def r(j):
        return 1 << (n - j)

    out = []
    for i in range(n + 1):
        whole = not t.doubled
        if 1 <= i <= n - 1:
            mask, pf, pe = r(i) | r(i + 1), r(i + 1), r(i)
        else:
            shape, j = (t.end0, 1) if i == 0 else (t.end_n, n)
            mask = r(j)
            if shape == DOUBLE:
                mask |= r(j) << n
                whole = True
            elif shape == FORK:
                mask |= r(2) if i == 0 else r(n - 1)
            pf, pe = (mask, 0) if i == 0 else (0, mask)
        if whole:
            out.append((mask, pf, pe, 0, _NEVER, _NEVER))
        else:
            out.append((mask, pf, pe, mask << n, pf << n, pe << n))
    return Rules(out)


class Rules(tuple):
    """The rules of one type, index by index, with their weight tables.

    ``weights`` holds one (mask, table) pair per rule, with the mask of
    :func:`steps`: the rule contributes ``table[x & mask]`` = phi - epsilon
    to the weight of x, both strings walked in the rule's step tables.
    """

    def __init__(self, rules):
        self.weights = tuple((mask, {s: _string(f, s) - _string(e, s) for s in f})
                             for mask, f, e in map(steps, rules))


def step_e(rule, x):
    """Raising by one rule: column two only if it admits e and column one
    does not admit f."""
    m1, pf1, pe1, m2, pf2, pe2 = rule
    if x & m2 == pe2 and x & m1 != pf1:
        return x ^ m2
    if x & m1 == pe1:
        return x ^ m1
    return None


def step_f(rule, x):
    """Lowering by one rule: column one only if it admits f and column two
    does not admit e."""
    m1, pf1, pe1, m2, pf2, pe2 = rule
    if x & m1 == pf1 and x & m2 != pe2:
        return x ^ m1
    if x & m2 == pf2:
        return x ^ m2
    return None


@lru_cache(maxsize=None)
def steps(rule) -> tuple:
    """The rule compiled by :func:`step_f` and :func:`step_e`: (mask, f, e)
    with mask = m1 | m2, where ``f[x & mask]`` and ``e[x & mask]`` are the
    bits that lowering and raising toggle in the id x, 0 where they do not
    apply.  A step reads and toggles the bits of mask alone, so a table has
    one entry per submask: at most 16 for a rule of a labeling."""
    m1, _, _, m2, _, _ = rule
    mask = m1 | m2
    f, e = {}, {}
    sub = mask
    while True:  # every submask of mask, mask itself first
        for table, step in ((f, step_f), (e, step_e)):
            y = step(rule, sub)
            table[sub] = 0 if y is None else y ^ sub
        if not sub:
            break
        sub = (sub - 1) & mask
    return mask, f, e


def _string(table, sub) -> int:
    """How often the step of ``table`` applies in a row from ``sub``."""
    count = 0
    while table[sub]:
        sub ^= table[sub]
        count += 1
    return count


def rule_weights(rs, ids) -> list:
    """:func:`weight` of each of ``ids`` from the weight tables of
    ``rs = rules(t)``, one rule at a time, without argument checks.

    ``ids`` is read once per rule, so it must be a sequence (a tuple, list,
    range or array), not an iterator.
    """
    return list(zip(*[[table[x & mask] for x in ids] for mask, table in rs.weights]))


def with_weight(rs, ids, weight) -> list:
    """The ids of ``ids``, in order, whose weight under the rules ``rs`` is
    ``weight``, narrowed one rule's weight table at a time: at C1 n = 9 the
    first rule keeps about a quarter of a component, the fourth under 3 %.
    """
    for (mask, table), value in zip(rs.weights, weight):
        ids = [x for x in ids if table[x & mask] == value]
    return ids


def ground_size(t: AffineType) -> int:
    return 1 << (2 * t.n if t.doubled else t.n)


def _check(t: AffineType, x, i: int = 0):
    if not 0 <= i <= t.n:
        raise ValueError(f"index {i} out of range for n={t.n}")
    if not (isinstance(x, int) and 0 <= x < ground_size(t)):
        raise ValueError(f"not a crystal element of {t}: {x!r}")


def e_tilde(t: AffineType, i: int, x):
    """Raising operator; returns the raised id or None."""
    _check(t, x, i)
    mask, _, e = steps(rules(t)[i])
    d = e[x & mask]
    return x ^ d if d else None


def f_tilde(t: AffineType, i: int, x):
    """Lowering operator, the inverse relation of :func:`e_tilde`."""
    _check(t, x, i)
    mask, f, _ = steps(rules(t)[i])
    d = f[x & mask]
    return x ^ d if d else None


def weight(t: AffineType, x):
    """Coroot pairings (phi_i - epsilon_i) over the full index set, read
    from the weight tables of the rules."""
    _check(t, x)
    return rule_weights(rules(t), (x,))[0]


# rows per chunk of :func:`text`: a chunk's table holds 4^_CHUNK strings
_CHUNK = 4


@lru_cache(maxsize=None)
def _text_chunks(n: int, doubled: bool) -> tuple:
    """(shift, mask, width, table) for each run of up to _CHUNK rows, from
    row n-bar down: ``table[c1 | c2 << width]`` is the text of the run whose
    column bits, row n-bar's first, are c1 and c2 (c2 = 0 on vectors)."""
    chunks = []
    for shift in range(0, n, _CHUNK):
        width = min(_CHUNK, n - shift)
        # a column's binary form lists its last row first; reversed, it
        # lists the rows of the run from the top down
        rows = [format(c, f"0{width}b")[::-1] for c in range(1 << width)]
        if doubled:
            table = ["/".join(map(str.__add__, c1, c2)) for c2 in rows for c1 in rows]
        else:
            table = ["/".join(c1) for c1 in rows]
        chunks.append((shift, (1 << width) - 1, width, tuple(table)))
    return tuple(chunks)


def text(t: AffineType, x: int) -> str:
    """Display form: rows n-bar down to 1-bar, e.g. ``10/11/01`` or ``1/0/1``."""
    _check(t, x)
    return texts(t, (x,))[0]


def texts(t: AffineType, ids) -> list:
    """:func:`text` of each of ``ids``, one chunk of rows at a time.

    Row n-bar is bit 0 of each column, so the chunks of rows come from the
    low bits up.  On a vector the column-two bits ``x >> (shift + n)`` are 0.
    ``ids`` is read once per chunk, so it must be a sequence (a tuple, list,
    range or array), not an iterator.
    """
    n = t.n
    chunks = [[table[x >> s & m | (x >> (s + n) & m) << w] for x in ids]
              for s, m, w, table in _text_chunks(n, t.doubled)]
    return list(map("/".join, zip(*chunks)))


def v_kl(t: AffineType, k: int, l: int) -> int:
    """Canonical classically-highest matrix indexed by (k, l).

    Column 1 carries ones in its top l rows, column 2 in the next n-k-l.
    """
    n = t.n
    if not (0 <= k <= n and 0 <= l <= n - k):
        raise ValueError(f"(k,l)=({k},{l}) out of range for n={n}")
    return (1 << l) - 1 | ((1 << (n - k - l)) - 1) << (l + n)


def v_spin(t: AffineType, k: int) -> int:
    """Highest representative of the one or two single-column components."""
    n = t.n
    if k == n:
        return 0
    if k == n - 1:
        return 1  # row n-bar set
    raise ValueError(f"spin index must be n or n-1, got {k}")


def all_elements(t: AffineType) -> range:
    """The full ground set, in id order."""
    return range(ground_size(t))


class CrystalGraph:
    """A connected component with its colored edges.

    Edges record the lowering direction: (src, dst, i) means index i lowers
    src to dst (equivalently raises dst to src).  Vertices are sorted ids.
    """

    __slots__ = ("type", "vertices", "edges")

    def __init__(self, type: AffineType, vertices: tuple, edges: tuple):
        self.type = type
        self.vertices = vertices
        self.edges = edges  # (src_id, dst_id, color)


def component(t: AffineType, x: int) -> CrystalGraph:
    """Closure of x under all raising and lowering operators (graph search)."""
    _check(t, x)
    compiled = [(i, *steps(rule)) for i, rule in enumerate(rules(t))]
    seen = {x}
    todo = [x]
    edges = []
    while todo:
        c = todo.pop()
        for i, mask, f, e in compiled:
            sub = c & mask
            if f[sub]:
                y = c ^ f[sub]
                edges.append((c, y, i))
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
            if e[sub]:
                y = c ^ e[sub]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
    edges.sort()
    return CrystalGraph(type=t, vertices=tuple(sorted(seen)), edges=tuple(edges))


def weyl_reflection(t: AffineType, i: int, x: int) -> int:
    """Simple-reflection action on a regular crystal element: |m| steps
    down (m >= 0) or up (m < 0), m = phi_i - epsilon_i.

    The steps and m come from the same tables, and m never exceeds the
    string it walks (phi_i >= m, epsilon_i >= -m), so the walk cannot end
    early.  It reads and toggles only the bits of the rule's mask.
    """
    _check(t, x, i)
    rs = rules(t)
    mask, f, e = steps(rs[i])
    sub = x & mask
    m = rs.weights[i][1][sub]
    table = f if m >= 0 else e
    for _ in range(abs(m)):
        sub ^= table[sub]
    return x & ~mask | sub


def weyl_action(t: AffineType, word, x: int) -> int:
    """Apply the reflection word left to right."""
    y = x
    for i in word:
        y = weyl_reflection(t, i, y)
    return y


def delta_word(t: AffineType, k: int):
    """Reflection word shifting the k-th fundamental weight by the null root.

    Only defined for the fork-plus-double labeling, 1 <= k <= n-1; applying
    it via :func:`weyl_action` swaps the two canonical representatives of
    the shared component.
    """
    if t.diamond != (FORK, DOUBLE):
        raise ValueError(f"delta word is only defined for {FORK},{DOUBLE} types")
    n = t.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k}")

    def block(i):
        return list(range(i, n - k + i))

    word = []
    for i in range(k, 0, -1):
        word.extend(block(i))
    word.extend(range(n, 1, -1))
    word.append(0)
    tail = []
    for i in range(k, 1, -1):
        tail.extend(block(i))
    word.extend(reversed(tail))
    return tuple(word)
