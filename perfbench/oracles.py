"""Output checks that do not call into the program under test.

Everything here is derived from the labeling and the rank alone: the end
shapes of each labeling, a Cartan matrix built from them, closed-form
component sizes, the expected suite names and check counts, and the bit
layout of vertex ids.  A checker returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
from math import comb

SINGLE, DOUBLE, FORK = "1", "2", "11"

# CLI token -> (printed label, end shape at node 0, end shape at node n)
LABELINGS = {
    "B1": ("B_n^(1)", FORK, SINGLE),
    "C1": ("C_n^(1)", DOUBLE, DOUBLE),
    "D1": ("D_n^(1)", FORK, FORK),
    "A2even": ("A_{2n}^(2)", SINGLE, DOUBLE),
    "A2evenDagger": ("A_{2n}^(2)dagger", DOUBLE, SINGLE),
    "A2odd": ("A_{2n-1}^(2)", FORK, DOUBLE),
    "D2": ("D_{n+1}^(2)", SINGLE, SINGLE),
}

# DOT edge colors by operator index, cycled
PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
           "#f781bf", "#999999", "#66c2a5", "#ffd92f", "#8da0cb")


def label(token: str) -> str:
    return LABELINGS[token][0]


def doubled(token: str) -> bool:
    return DOUBLE in LABELINGS[token][1:]


def ground_set_size(token: str, n: int) -> int:
    return 4 ** n if doubled(token) else 2 ** n


def _c(m: int, r: int) -> int:
    return comb(m, r) if 0 <= r <= m else 0


# -- Cartan data ----------------------------------------------------------------

def cartan_matrix(token: str, n: int):
    """a[i][j] = <alpha_i^vee, alpha_j> for ranks where the two ends are apart."""
    if n < 3:
        raise ValueError("the benchmark's Cartan table starts at rank 3")
    _, end0, end_n = LABELINGS[token]
    a = [[2 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]

    def bond(i, j, aij, aji):
        a[i][j], a[j][i] = aij, aji

    for i in range(1, n - 1):
        bond(i, i + 1, -1, -1)
    # a long end root pairs to -1 with its neighbour, a short one to -2
    for end, near, fork_near in ((0, 1, 2), (n, n - 1, n - 2)):
        shape = end0 if end == 0 else end_n
        if shape == DOUBLE:
            bond(end, near, -1, -2)
        elif shape == SINGLE:
            bond(end, near, -2, -1)
        else:
            bond(end, fork_near, -1, -1)
    return a


# -- components -------------------------------------------------------------------

def component_keys(token: str, n: int):
    """The (k, l) index set of the components of a doubled labeling."""
    if token == "C1":
        return [(k, l) for k in range(n + 1) for l in range(n - k + 1)]
    if token == "A2even":
        return [(k, n - k) for k in range(n + 1)]
    if token == "A2evenDagger":
        return [(k, 0) for k in range(n + 1)]
    if token == "A2odd":
        return sorted([(k, n - k) for k in range(n + 1)] + [(0, n - 1)])
    raise ValueError(f"{token} has no (k, l) components")


def component_size(token: str, n: int, k: int, l: int) -> int:
    """Closed-form size of the component indexed by (k, l)."""
    if token == "C1":
        return _c(2 * n, k) - _c(2 * n, k - 2)
    if token in ("A2even", "A2evenDagger"):
        return _c(2 * n, k) + _c(2 * n, k - 1)
    if token == "A2odd":
        if k == 0:
            return 1
        if k == n:
            return _c(2 * n, n)
        return 2 * _c(2 * n, k)
    raise ValueError(f"{token} has no (k, l) components")


def representative_id(n: int, k: int, l: int) -> int:
    """Id of the canonical (k, l) matrix: column 1 full in its top l rows,
    column 2 full in the next n - k - l rows."""
    col1 = sum(1 << (n - j) for j in range(n - l + 1, n + 1))
    col2 = sum(1 << (n - j) for j in range(k + 1, n - l + 1))
    return col1 | (col2 << n)


def matrix_text(n: int, vid: int) -> str:
    """Text form of a matrix id: rows n-bar down to 1-bar; row j-bar of a
    column sits at bit n - j, column 2 above column 1."""
    col1, col2 = vid & ((1 << n) - 1), vid >> n
    return "/".join(f"{(col1 >> (n - j)) & 1}{(col2 >> (n - j)) & 1}"
                    for j in range(n, 0, -1))


def string_position(n: int, vid: int):
    """(epsilon, phi) of the row operators: rows 10 lower, rows 01 raise,
    read from 1-bar upwards, each 01 cancelling an earlier unmatched 10."""
    col1, col2 = vid & ((1 << n) - 1), vid >> n
    eps = phi = 0
    for j in range(1, n + 1):
        row = ((col1 >> (n - j)) & 1, (col2 >> (n - j)) & 1)
        if row == (1, 0):
            phi += 1
        elif row == (0, 1):
            if phi:
                phi -= 1
            else:
                eps += 1
    return eps, phi


def branching(token: str, n: int, k: int):
    """Labels of the classically highest elements in component (k, .) of A2odd."""
    if token != "A2odd":
        raise ValueError("only the fork-plus-double labeling is tabulated")
    if k == 0:
        return [0]
    if k == n:
        return [k - 2 * i for i in range(k // 2 + 1)]
    return [k - 2 * i for i in range(k // 2 + 1) for _ in range(2)]


# -- expected verdict lines -------------------------------------------------------

def suite_names(token: str):
    if not doubled(token):
        return ["spin"]
    names = ["prop41", "thm42", "thm58", "cor57"]
    if token == "A2odd":
        names += ["lem44", "prop46", "deltaword"]
    return names


def fock_check_count(token: str, n: int, parts) -> int:
    """Checks run by ``fock verify`` for the given flags (all succeeding)."""
    m = n + 1
    count = 0
    if "relations" in parts:
        # t t^-1, t commute, t e / t f gauge, [e, f], Serre e / f, weights
        count += m + m * n // 2 + 2 * m * m + m * m + 2 * m * n + m
    if "polarization" in parts:
        count += 3 * m
    if "crystal_match" in parts:
        count += 6 * m
    if "highest" in parts:
        count += 2 * len(component_keys(token, n))
    if "deltaword" in parts:
        labels = [x for key in component_keys(token, n)
                  for x in branching(token, n, key[0])]
        count += sum(5 + (labels.count(k) == 2) for k in range(1, n))
    return count


# -- checkers -----------------------------------------------------------------------

def check_verify(token: str, n: int, rc: int, out: str):
    expected = sorted(f"[{name}] PASS {label(token)} n={n}"
                      for name in suite_names(token))
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = sorted(out.splitlines())
    if lines != expected:
        problems.append(f"verdict lines {lines} != {expected}")
    return problems


def check_fock(token: str, n: int, parts, rc: int, out: str):
    total = fock_check_count(token, n, parts)
    lines = out.splitlines()
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not lines or lines[-1] != \
            f"{total}/{total} checks passed for {label(token)} n={n}":
        problems.append(f"summary {lines[-1:]} does not report {total} passed")
    body = lines[:-1]
    if len(body) != total or not all(x.startswith("[ok] ") for x in body):
        problems.append(f"{len(body)} check lines, expected {total} all ok")
    return problems


def check_decompose(token: str, n: int, rc: int, out: str):
    problems = [] if rc == 0 else [f"exit code {rc}"]
    data = json.loads(out)
    if (data["type"], data["n"], data["total"]) != (label(token), n, 4 ** n):
        problems.append(f"header {data['type']} n={data['n']} "
                        f"total={data['total']}")
    rows = data["components"]
    keys = [tuple(row["key"]) for row in rows]
    if keys != component_keys(token, n):
        problems.append(f"component keys {keys}")
        return problems
    for row in rows:
        k, l = row["key"]
        size = component_size(token, n, k, l)
        rep = representative_id(n, k, l)
        if row["size"] != size:
            problems.append(f"({k},{l}) size {row['size']} != {size}")
        if (row["rep_id"], row["representative"]) != (rep, matrix_text(n, rep)):
            problems.append(f"({k},{l}) representative {row['representative']}")
        if row["sigma"] != list(string_position(n, rep)):
            problems.append(f"({k},{l}) sigma {row['sigma']}")
        halves = token == "A2odd" and 1 <= k <= n - 1 and l == n - k
        if row["split"] != ([size // 2, size // 2] if halves else None):
            problems.append(f"({k},{l}) split {row['split']}")
    return problems


def check_graph(doc: dict, token: str, n: int, k: int, l: int, quotient: bool):
    """Structure of one exported component, vertex by vertex and edge by edge."""
    problems = []
    header = {"type": label(token), "cli_type": token, "n": n, "k": k, "l": l,
              "quotient": quotient}
    if doc["header"] != header:
        problems.append(f"header {doc['header']}")
    vertices, edges = doc["vertices"], doc["edges"]
    size = component_size(token, n, k, l) // (2 if quotient else 1)
    if len(vertices) != size:
        problems.append(f"{len(vertices)} vertices, expected {size}")
    ids = [v["id"] for v in vertices]
    if ids != sorted(set(ids)):
        problems.append("vertex ids are not strictly increasing")
    weights = {}
    for v in vertices:
        weights[v["id"]] = v["weight"]
        members = v["text"].split("+")
        if len(members) != (2 if quotient else 1):
            problems.append(f"vertex {v['id']} text {v['text']}")
            continue
        member_ids = [_matrix_id(n, text) for text in members]
        if v["id"] != min(member_ids):
            problems.append(f"vertex {v['id']} does not match text {v['text']}")
        if v["sigma"] != list(string_position(n, member_ids[0])):
            problems.append(f"vertex {v['id']} sigma {v['sigma']}")
        if len(v["weight"]) != n + 1:
            problems.append(f"vertex {v['id']} weight {v['weight']}")
    rep = representative_id(n, k, l)
    if not quotient and rep not in weights:
        problems.append(f"representative {rep} is missing")
    a = cartan_matrix(token, n)
    triples = [(e["src"], e["dst"], e["color"]) for e in edges]
    if triples != sorted(set(triples)):
        problems.append("edges are not sorted and distinct")
    if len({(s, c) for s, _, c in triples}) != len(triples) or \
            len({(d, c) for _, d, c in triples}) != len(triples):
        problems.append("an operator is not a partial bijection")
    adjacency = {vid: [] for vid in weights}
    for s, d, c in triples:
        if s not in weights or d not in weights:
            problems.append(f"edge ({s},{d},{c}) leaves the vertex set")
            continue
        lowered = [w - a[j][c] for j, w in enumerate(weights[s])]
        if weights[d] != lowered:
            problems.append(f"edge ({s},{d},{c}): weight {weights[d]} != {lowered}")
        adjacency[s].append(d)
        adjacency[d].append(s)
        if len(problems) > 20:
            return problems
    # in a normal crystal, the c-edges form strings from weight m down to -m
    for c in range(n + 1):
        step = {s: d for s, d, cc in triples
                if cc == c and s in weights and d in weights}
        for start in weights.keys() - step.values():
            end, length = start, 0
            while end in step and length <= len(weights):
                end, length = step[end], length + 1
            if (weights[start][c], weights[end][c]) != (length, -length):
                problems.append(f"{c}-string from {start} has length {length} "
                                f"between weights {weights[start][c]} and "
                                f"{weights[end][c]}")
                break
    if ids:
        seen, stack = {ids[0]}, [ids[0]]
        while stack:
            for y in adjacency[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(ids):
            problems.append(f"edges connect {len(seen)} of {len(ids)} vertices")
    return problems


def _matrix_id(n: int, text: str) -> int:
    rows = text.split("/")
    if len(rows) != n or any(len(r) != 2 or set(r) - set("01") for r in rows):
        raise ValueError(f"bad matrix text {text!r}")
    vid = 0
    for offset, row in enumerate(rows):
        j = n - offset
        vid |= int(row[0]) << (n - j)
        vid |= int(row[1]) << (2 * n - j)
    return vid


def check_dot(out: str, doc: dict):
    """The DOT rendering carries exactly the vertices and edges of ``doc``."""
    h = doc["header"]
    title = f"{h['type']} n={h['n']} k={h['k']} l={h['l']}"
    title += " quotient" if h["quotient"] else ""
    expected = ["digraph crystal {", f'  label="{title}";', "  rankdir=TB;",
                '  node [shape=box, fontname="Courier"];']
    expected += [f'  {v["id"]} [label="{v["text"]}"];' for v in doc["vertices"]]
    expected += [f'  {e["src"]} -> {e["dst"]} [color="'
                 f'{PALETTE[e["color"] % len(PALETTE)]}", label="{e["color"]}"];'
                 for e in doc["edges"]]
    expected.append("}")
    lines = out.split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines != expected:
        first = next((i for i, (x, y) in enumerate(zip(lines, expected)) if x != y),
                     min(len(lines), len(expected)))
        return [f"DOT differs from the JSON document at line {first + 1}"]
    return []
