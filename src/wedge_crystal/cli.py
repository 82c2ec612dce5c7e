"""Batch command line interface: graphs, decomposition tables, verifiers.

All output is deterministic: vertices are ordered by id, edges by
(source, target, color), and JSON is emitted with sorted keys, so repeated
invocations are byte-identical.  Exit codes: 0 all checks pass, 1 a check
failed (a JSON discrepancy dump goes to stdout), 2 usage error, 3 internal
fault (one JSON line on stderr), 141 the reader closed stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _string

from . import bicrystal, crystal, fock, theorems
from .cartan import DOUBLE, FORK, from_label

# fixed edge palette, cycled by color index; documented in the README
PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#ffd92f", "#8da0cb",
)


class UsageError(Exception):
    pass


def _resolve_type(args):
    try:
        return from_label(args.type, args.n)
    except ValueError as exc:
        raise UsageError(str(exc))


def graph_document(t, k, l=None, quotient=False) -> dict:
    """Assemble the serializable form of one component graph."""
    header = {"type": t.label, "cli_type": t.cli_token, "n": t.n,
              "k": k, "l": l, "quotient": bool(quotient)}
    if t.doubled:
        if not 0 <= k <= t.n:
            raise UsageError(f"k must lie in 0..{t.n}, got {k}")
        pairs = theorems.h_diamond(t)
        if l is None:
            candidates = [pair for pair in pairs if pair[0] == k]
            if len(candidates) != 1:
                raise UsageError(
                    f"--l is required for {t.label} (candidates: {candidates})")
            l = candidates[0][1]
            header["l"] = l
        if (k, l) not in pairs:
            raise UsageError(f"(k,l)=({k},{l}) does not index a component of {t.label}")
        g = crystal.component(t, crystal.v_kl(t, k, l))
    elif l is not None:
        raise UsageError(f"--l needs a two-column type, not {t.label}")
    elif k in (t.n, t.n - 1):
        g = crystal.component(t, crystal.v_spin(t, k))
    else:
        raise UsageError(f"k must be {t.n} or {t.n - 1} for {t.label}")
    rs = crystal.rules(t)
    if quotient:
        if t.diamond != (FORK, DOUBLE) or k in (0, t.n):
            raise UsageError("--quotient needs the fork-plus-double type "
                             "with 0 < k < n")
        q = bicrystal.quotient_graph(g, k)
        vertices = [
            {"id": oid, "text": f"{crystal.text(t, plus)}+{crystal.text(t, minus)}",
             "weight": list(crystal.rule_weight(rs, plus)),
             "sigma": list(bicrystal.sigma(t.n, plus))}
            for oid, (plus, minus) in zip(q.ids, q.orbits)
        ]
        edges = q.edges
    else:
        vertices = [
            {"id": x, "text": crystal.text(t, x),
             "weight": list(crystal.rule_weight(rs, x)),
             "sigma": list(bicrystal.sigma(t.n, x)) if t.doubled else None}
            for x in g.vertices
        ]
        edges = g.edges
    return {"header": header, "vertices": vertices,
            "edges": [{"src": s, "dst": d, "color": c} for s, d, c in edges]}


def _dumps(obj) -> str:
    """Sorted, indented JSON for the small documents: reports and dumps."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


# list items of a vertex record, and the list's closing line
_ITEM = ",\n        "
_OPEN = "[\n        "
_CLOSE = "\n      ]"


def render_json(doc: dict) -> str:
    """A graph document, byte for byte as :func:`_dumps` writes it.

    ``json.dumps`` with ``indent`` runs CPython's pure-Python encoder, so the
    fixed shape of :func:`graph_document` is written from one template per
    record instead; strings go through the C string encoder.
    """
    h = doc["header"]
    header = (
        f'{{\n    "cli_type": {_string(h["cli_type"])},\n    "k": {h["k"]},\n'
        f'    "l": {"null" if h["l"] is None else h["l"]},\n    "n": {h["n"]},\n'
        f'    "quotient": {"true" if h["quotient"] else "false"},\n'
        f'    "type": {_string(h["type"])}\n  }}')
    vertices = []
    for v in doc["vertices"]:
        s = v["sigma"]
        sigma = ("null" if s is None
                 else _OPEN + _ITEM.join(map(int.__repr__, s)) + _CLOSE)
        vertices.append(
            f'    {{\n      "id": {v["id"]},\n      "sigma": {sigma},\n'
            f'      "text": {_string(v["text"])},\n      "weight": {_OPEN}'
            f'{_ITEM.join(map(int.__repr__, v["weight"]))}{_CLOSE}\n    }}')
    edges = ",\n".join(
        f'    {{\n      "color": {e["color"]},\n      "dst": {e["dst"]},\n'
        f'      "src": {e["src"]}\n    }}' for e in doc["edges"])
    edges = f"[\n{edges}\n  ]" if edges else "[]"
    vertices = ",\n".join(vertices)
    return (f'{{\n  "edges": {edges},\n  "header": {header},\n'
            f'  "vertices": [\n{vertices}\n  ]\n}}')


def render_dot(doc: dict) -> str:
    h = doc["header"]
    title = f"{h['type']} n={h['n']} k={h['k']} l={h['l']}"
    if h["quotient"]:
        title += " quotient"
    lines = [
        "digraph crystal {",
        f'  label="{title}";',
        "  rankdir=TB;",
        '  node [shape=box, fontname="Courier"];',
    ]
    for v in doc["vertices"]:
        lines.append(f'  {v["id"]} [label="{v["text"]}"];')
    for e in doc["edges"]:
        color = PALETTE[e["color"] % len(PALETTE)]
        lines.append(
            f'  {e["src"]} -> {e["dst"]} [color="{color}", label="{e["color"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    t = _resolve_type(args)
    doc = graph_document(t, args.k, args.l, args.quotient)
    if args.format == "json":
        print(render_json(doc))
    else:
        print(render_dot(doc), end="")
    return 0


def cmd_decompose(args) -> int:
    t = _resolve_type(args)
    data = theorems.decomposition_report(t)
    if args.format == "json":
        print(_dumps(data))
        return 0
    head = f"{'key':>10} {'rep':>14} {'size':>6}  {'branching':<18} sigma split"
    print(f"# {t.label} n={t.n}, {data['total']} elements")
    print(head)
    for row in data["components"]:
        key = ",".join(str(x) for x in row["key"])
        sig = ",".join(str(x) for x in row["sigma"]) if row["sigma"] else "-"
        split = ",".join(str(x) for x in row["split"]) if row["split"] else "-"
        branching = "+".join(str(b) for b in row["branching"])
        print(f"{key:>10} {row['representative']:>14} {row['size']:>6}  "
              f"{branching:<18} {sig:>5} {split}")
    return 0


def cmd_verify(args) -> int:
    t = _resolve_type(args)
    try:
        names = theorems.select_suites(t, args.suite, args.k)
    except ValueError as exc:
        raise UsageError(str(exc))
    results = [theorems.run_suite(name, t, args.k) for name in names]
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.name}] {status} {t.label} n={t.n}")
    if failed:
        dump = [{"suite": r.name, "discrepancies": r.discrepancies,
                 "stats": r.stats} for r in failed]
        print(_dumps({"type": t.label, "n": t.n, "failures": dump}))
        return 1
    return 0


def _flag(group: str) -> str:
    return "--" + group.replace("_", "-")


def cmd_fock_verify(args) -> int:
    t = _resolve_type(args)
    groups = fock.GROUPS
    wanted = [name for name in groups if getattr(args, name)]
    for name in wanted:
        applies, kind = groups[name][1]
        if not applies(t):
            raise UsageError(f"{_flag(name)} needs {kind}")
    if not wanted:
        wanted = [name for name, (_, (applies, _)) in groups.items() if applies(t)]
    rep = fock.representation(t)
    checks = [check for name in wanted for func in groups[name][0]
              for check in getattr(fock, func)(rep)]
    bad = [c for c in checks if not c.ok]
    for c in checks:
        print(f"[{'ok' if c.ok else 'FAIL'}] {c.name}")
        if c.witness:
            print(f"  witness: {c.witness}")
    print(f"{len(checks) - len(bad)}/{len(checks)} checks passed "
          f"for {t.label} n={t.n}")
    return 0 if not bad else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedge-crystal",
        description="exact crystal components, decomposition reports and "
                    "symbolic verification for the seven supported labelings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p):
        p.add_argument("--type", required=True,
                       help="label: B1, C1, D1, A2even, A2evenDagger, A2odd, "
                            "D2, a Kac label, or an end-shape pair such as "
                            "2,2 or (11,2)")
        p.add_argument("--n", type=int, required=True, help="rank, at least 2")

    g = sub.add_parser("graph", help="emit one component as DOT or JSON")
    add_type_args(g)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--l", type=int, default=None)
    g.add_argument("--quotient", action="store_true")
    g.add_argument("--format", choices=("dot", "json"), default="dot")
    g.set_defaults(func=cmd_graph)

    d = sub.add_parser("decompose", help="full decomposition report")
    add_type_args(d)
    d.add_argument("--format", choices=("table", "json"), default="table")
    d.set_defaults(func=cmd_decompose)

    v = sub.add_parser("verify", help="run exhaustive verification suites")
    add_type_args(v)
    v.add_argument("--suite", choices=(*theorems.SUITES, "all"),
                   required=True)
    v.add_argument("--k", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    fk = sub.add_parser("fock", help="symbolic module checks")
    fksub = fk.add_subparsers(dest="fock_command", required=True)
    fv = fksub.add_parser("verify", help="relations, polarization, "
                                         "crystal match, highest vectors")
    add_type_args(fv)
    for group in fock.GROUPS:
        fv.add_argument(_flag(group), action="store_true")
    fv.set_defaults(func=cmd_fock_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: end quietly, as SIGPIPE would, with
        # what is still buffered sent to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(json.dumps({"internal_error": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
