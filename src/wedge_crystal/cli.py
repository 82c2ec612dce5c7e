"""Batch command line interface: graphs, decomposition tables, verifiers.

All output is deterministic: vertices are ordered by id, edges by
(source, target, color), and JSON is emitted with sorted keys, so repeated
invocations are byte-identical.  Exit codes: 0 all checks pass, 1 a check
failed (a JSON discrepancy dump goes to stdout), 2 usage error, 3 internal
fault (one JSON line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bicrystal, crystal, fock, theorems
from .cartan import DOUBLE, FORK, from_label, fundamental_weight_cl

# fixed edge palette, cycled by color index; documented in the README
PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#ffd92f", "#8da0cb",
)


class UsageError(Exception):
    pass


def _resolve_type(args):
    if args.diamond and args.type:
        raise UsageError("give either --type or --diamond, not both")
    if not (args.diamond or args.type):
        raise UsageError("one of --type or --diamond is required")
    try:
        return from_label(args.diamond or args.type, args.n)
    except ValueError as exc:
        raise UsageError(str(exc))


def graph_document(t, k, l=None, quotient=False) -> dict:
    """Assemble the serializable form of one component graph."""
    header = {"type": t.label, "cli_type": t.cli_token, "n": t.n,
              "k": k, "l": l, "quotient": bool(quotient)}
    if t.doubled:
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


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "))


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


def _report_rows(t):
    report = theorems.decomposition_report(t)
    rows = []
    for row in report.rows:
        rows.append({
            "key": list(row.key),
            "representative": row.rep_text,
            "rep_id": row.rep_id,
            "size": row.size,
            "weight": list(row.weight),
            "branching": [b for b in row.branching],
            "sigma": list(row.sigma) if row.sigma else None,
            "split": list(row.split) if row.split else None,
        })
    return {"type": t.label, "n": t.n, "total": report.total, "components": rows}


def cmd_decompose(args) -> int:
    t = _resolve_type(args)
    data = _report_rows(t)
    if args.format == "json":
        print(render_json(data))
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
    table = theorems._DOMAINS
    if args.suite == "all":
        # every suite whose type predicate holds, matrix suites before fork ones
        names = sorted((name for name, (_, (applies, _), _, _) in table.items()
                        if applies(t)),
                       key=lambda name: table[name][1] is theorems._FORK)
    else:
        names = [args.suite]
    for name in names:
        try:
            theorems.suite_ks(name, t, args.k)
        except ValueError as exc:
            raise UsageError(str(exc))
    results = []
    for name in names:
        _, _, gap, func = table[name]
        run = getattr(theorems, func)
        results.append(run(t) if gap is None else run(t, args.k))
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.name}] {status} {t.label} n={t.n}")
    if failed:
        dump = [{"suite": r.name, "discrepancies": r.discrepancies,
                 "stats": r.stats} for r in failed]
        print(render_json({"type": t.label, "n": t.n, "failures": dump}))
        return 1
    return 0


def cmd_fock_verify(args) -> int:
    t = _resolve_type(args)
    wanted = {
        "relations": args.relations,
        "polarization": args.polarization,
        "crystal_match": args.crystal_match,
        "highest": args.highest,
        "deltaword": args.deltaword,
    }
    if not any(wanted.values()):
        wanted = {k: True for k in wanted}
        wanted["deltaword"] = t.diamond == (FORK, DOUBLE)
    if wanted["deltaword"] and t.diamond != (FORK, DOUBLE):
        raise UsageError("--deltaword needs the fork-plus-double type")
    rep = fock.representation(t)
    checks = []
    if wanted["relations"]:
        checks += fock.verify_relations(rep)
        checks += fock.verify_weight_compatibility(rep)
    if wanted["polarization"]:
        checks += fock.verify_polarization(rep)
    if wanted["crystal_match"]:
        match_checks, _signs = fock.crystal_match(rep)
        checks += match_checks
    if wanted["highest"]:
        checks += _highest_checks(rep)
    if wanted["deltaword"]:
        checks += fock.verify_null_shift(rep)
    bad = [c for c in checks if not c.ok]
    for c in checks:
        print(f"[{'ok' if c.ok else 'FAIL'}] {c.name}")
        if c.witness:
            print(f"  witness: {c.witness}")
    print(f"{len(checks) - len(bad)}/{len(checks)} checks passed "
          f"for {t.label} n={t.n}")
    return 0 if not bad else 1


def _highest_checks(rep):
    t = rep.type
    checks = []
    if not t.doubled:
        return checks
    for (k, l) in theorems.h_diamond(t):
        wvec = fundamental_weight_cl(t, k)
        kernel, _ = fock.highest_vectors(rep, wvec)
        expected = len(fock._highest_crystal_ids(rep, wvec))
        checks.append(fock.Check(
            f"highest-vector count at weight index {k}",
            len(kernel) == expected))
        _, ok, _dim = fock.normalized_highest_vector(rep, k, l)
        checks.append(fock.Check(f"normalized highest vector ({k},{l})", ok))
    return checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedge-crystal",
        description="exact crystal components, decomposition reports and "
                    "symbolic verification for the seven supported labelings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p):
        p.add_argument("--type", help="label: B1, C1, D1, A2even, "
                                      "A2evenDagger, A2odd, D2, or a Kac label")
        p.add_argument("--diamond", help="end-shape pair such as 2,2 or (11,2)")
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
    v.add_argument("--suite", choices=(*theorems._DOMAINS, "all"),
                   required=True)
    v.add_argument("--k", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    fk = sub.add_parser("fock", help="symbolic module checks")
    fksub = fk.add_subparsers(dest="fock_command", required=True)
    fv = fksub.add_parser("verify", help="relations, polarization, "
                                         "crystal match, highest vectors")
    add_type_args(fv)
    fv.add_argument("--relations", action="store_true")
    fv.add_argument("--polarization", action="store_true")
    fv.add_argument("--crystal-match", dest="crystal_match", action="store_true")
    fv.add_argument("--highest", action="store_true")
    fv.add_argument("--deltaword", action="store_true")
    fv.set_defaults(func=cmd_fock_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(json.dumps({"internal_error": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
