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


def graph_document(t, k, l=None, quotient=False, full=True) -> dict:
    """Assemble one component graph as columns.

    ``ids``, ``text``, ``weight`` and ``sigma`` hold one entry per vertex, in
    id order; ``edges`` holds (src, dst, color) tuples.  The weights and
    sigmas are tuples, with sigma None on a single-column type.  Without
    ``full`` the ``weight`` and ``sigma`` columns are None: :func:`render_dot`
    prints only the ids and texts.
    """
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
    if quotient:
        if t.diamond != (FORK, DOUBLE) or k in (0, t.n):
            raise UsageError("--quotient needs the fork-plus-double type "
                             "with 0 < k < n")
        q = bicrystal.quotient_graph(g, k)
        ids, edges = q.ids, q.edges
        # the weight and sigma of an orbit are those of its plus member
        members = [plus for plus, _ in q.orbits]
        minus = [m for _, m in q.orbits]
        text = list(map("+".join, zip(crystal.texts(t, members), crystal.texts(t, minus))))
    else:
        ids = members = g.vertices
        edges = g.edges
        text = crystal.texts(t, ids)
    weight = sigma = None
    if full:
        weight = crystal.rule_weights(crystal.rules(t), members)
        sigma = bicrystal.sigmas(t.n, members) if t.doubled else [None] * len(ids)
    return {"header": header, "ids": ids, "text": text, "weight": weight,
            "sigma": sigma, "edges": edges}


def _dumps(obj) -> str:
    """Sorted, indented JSON for the small documents: reports and dumps."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


# list items of a vertex record, and the list's closing line
_ITEM = ",\n        "
_OPEN = "[\n        "
_CLOSE = "\n      ]"


def render_json(doc: dict) -> str:
    """A full graph document, byte for byte as :func:`_dumps` writes its
    records: one object per vertex (id, sigma, text, weight) and per edge
    (color, dst, src).

    ``json.dumps`` with ``indent`` runs CPython's pure-Python encoder, so the
    fixed shape of the records is written from templates instead.  A text
    holds only ``0``, ``1``, ``/`` and ``+``, so quoting it encodes it.
    """
    h = doc["header"]
    header = (
        f'{{\n    "cli_type": {_string(h["cli_type"])},\n    "k": {h["k"]},\n'
        f'    "l": {"null" if h["l"] is None else h["l"]},\n    "n": {h["n"]},\n'
        f'    "quotient": {"true" if h["quotient"] else "false"},\n'
        f'    "type": {_string(h["type"])}\n  }}')
    weight, sigma = doc["weight"], doc["sigma"]
    lists = {None: "null"}  # each distinct weight or sigma, rendered once
    for values in {*weight, *sigma}:
        if values is not None:
            lists[values] = _OPEN + _ITEM.join(map(int.__repr__, values)) + _CLOSE
    vertices = ",\n".join([
        f'    {{\n      "id": {x},\n      "sigma": {lists[s]},\n'
        f'      "text": "{text}",\n      "weight": {lists[w]}\n    }}'
        for x, text, w, s in zip(doc["ids"], doc["text"], weight, sigma)])
    # the opening lines of an edge record of each color index 0..n
    heads = [f'    {{\n      "color": {c},\n      "dst": ' for c in range(h["n"] + 1)]
    edges = ",\n".join([f'{heads[c]}{d},\n      "src": {s}\n    }}'
                         for s, d, c in doc["edges"]])
    edges = f"[\n{edges}\n  ]" if edges else "[]"
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
    lines += [f'  {x} [label="{text}"];' for x, text in zip(doc["ids"], doc["text"])]
    # the attributes of each color index 0..n, written once
    styles = [f' [color="{PALETTE[c % len(PALETTE)]}", label="{c}"];'
              for c in range(h["n"] + 1)]
    lines += [f'  {s} -> {d}{styles[c]}' for s, d, c in doc["edges"]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_graph(args) -> int:
    t = _resolve_type(args)
    doc = graph_document(t, args.k, args.l, args.quotient,
                         full=args.format == "json")
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
    # each verdict goes out as its suite ends, so an internal fault in a
    # later suite leaves the earlier verdicts on stdout
    failed = []
    for name in names:
        r = theorems.run_suite(name, t, args.k)
        print(f"[{r.name}] {'PASS' if r.passed else 'FAIL'} {t.label} n={t.n}",
              flush=True)
        if not r.passed:
            failed.append(r)
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
    fac = fock.factors(t)  # every group reads these factors
    # each group's verdicts go out as the group ends, so an internal fault
    # in a later group leaves the earlier verdicts on stdout
    total = bad = 0
    for name in wanted:
        checks = [check for func in groups[name][0] for check in getattr(fock, func)(fac)]
        for c in checks:
            print(f"[{'ok' if c.ok else 'FAIL'}] {c.name}")
            if c.witness:
                print(f"  witness: {c.witness}")
        sys.stdout.flush()
        total += len(checks)
        bad += sum(not c.ok for c in checks)
    print(f"{total - bad}/{total} checks passed for {t.label} n={t.n}")
    return 0 if not bad else 1


def _add_type_args(p):
    p.add_argument("--type", required=True,
                   help="label: B1, C1, D1, A2even, A2evenDagger, A2odd, "
                        "D2, a Kac label, or an end-shape pair such as "
                        "2,2 or (11,2)")
    p.add_argument("--n", type=int, required=True, help="rank, at least 2")


def _add_graph(sub):
    g = sub.add_parser("graph", help="emit one component as DOT or JSON")
    _add_type_args(g)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--l", type=int, default=None)
    g.add_argument("--quotient", action="store_true")
    g.add_argument("--format", choices=("dot", "json"), default="dot")
    g.set_defaults(func=cmd_graph)


def _add_decompose(sub):
    d = sub.add_parser("decompose", help="full decomposition report")
    _add_type_args(d)
    d.add_argument("--format", choices=("table", "json"), default="table")
    d.set_defaults(func=cmd_decompose)


def _add_verify(sub):
    v = sub.add_parser("verify", help="run exhaustive verification suites")
    _add_type_args(v)
    v.add_argument("--suite", choices=(*theorems.SUITES, "all"),
                   required=True)
    v.add_argument("--k", type=int, default=None)
    v.set_defaults(func=cmd_verify)


def _add_fock(sub):
    fk = sub.add_parser("fock", help="symbolic module checks")
    fksub = fk.add_subparsers(dest="fock_command", required=True)
    fv = fksub.add_parser("verify", help="relations, polarization, "
                                         "crystal match, highest vectors")
    _add_type_args(fv)
    for group in fock.GROUPS:
        fv.add_argument(_flag(group), action="store_true")
    fv.set_defaults(func=cmd_fock_verify)


# each subcommand and the function that adds its parser, in --help order
COMMANDS = {"graph": _add_graph, "decompose": _add_decompose,
            "verify": _add_verify, "fock": _add_fock}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole argument tree, or with ``command`` the tree with that one
    subcommand's parser.

    The usage line of the one-command tree still lists every subcommand, so
    its help and its errors read as the whole tree's do for any argument
    list that starts with ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="wedge-crystal",
        description="exact crystal components, decomposition reports and "
                    "symbolic verification for the seven supported labelings",
    )
    # the whole tree's usage line lists its subcommands by default
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in COMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a first argument that names a subcommand needs that subcommand's
    # parser alone; help, a missing or an unknown command, the whole tree
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
    except Exception as exc:
        print(json.dumps({"internal_error": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
