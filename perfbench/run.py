"""End-to-end benchmark of the wedge-crystal command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload suites --seed 1 --seconds 30 --trace 0

Each operation is one ``wedge_crystal.cli.main`` call with the argument list a
user would type, run in a fresh interpreter (``child.py``), one child at a
time.  A pass runs every operation of the workload once; passes repeat while
another one is expected to fit in ``--seconds``.  Every output is checked
against ``oracles``, which never call into the program.

With ``--trace 0`` the last line reports, as medians over passes, the
end-to-end metrics ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb``.
With ``--trace 1`` each round runs one plain pass and one traced pass and the
last line reports the per-layer metrics of ``tracer`` (medians over traced
passes) and ``trace.overhead_s``.  The workloads are exhaustive and fixed;
``--seed`` is accepted so that every benchmark shares one command line, and
changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # a run, hung children included, ends within this
WARMUP = ["verify", "--suite", "prop41", "--type", "C1", "--n", "2"]


class Op:
    """One CLI invocation and the check of its output."""

    def __init__(self, argv, token, n, check):
        self.argv, self.token, self.n, self.check = argv, token, n, check


def _verify(token, n):
    argv = ["verify", "--suite", "all", "--type", token, "--n", str(n)]
    return Op(argv, token, n,
              lambda rc, out, seen: oracles.check_verify(token, n, rc, out))


def _decompose(token, n):
    argv = ["decompose", "--format", "json", "--type", token, "--n", str(n)]
    return Op(argv, token, n,
              lambda rc, out, seen: oracles.check_decompose(token, n, rc, out))


def _fock(token, n, parts):
    flags = [f"--{part.replace('_', '-')}" for part in parts]
    argv = ["fock", "verify", *flags, "--type", token, "--n", str(n)]
    return Op(argv, token, n,
              lambda rc, out, seen: oracles.check_fock(token, n, parts, rc, out))


def _graph(token, n, k, l, fmt, quotient=False):
    """A graph render; ``seen`` holds this pass's earlier outputs by argv."""
    argv = ["graph", "--type", token, "--n", str(n), "--k", str(k), "--l", str(l)]
    argv += ["--quotient"] * quotient + ["--format", fmt]
    json_argv = tuple(argv[:-1] + ["json"])

    def check(rc, out, seen):
        if rc != 0:
            return [f"exit code {rc}"]
        first = seen.get(tuple(argv))
        if first is not None:
            return [] if out == first else ["second render is not byte-identical"]
        if fmt == "json":
            return oracles.check_graph(json.loads(out), token, n, k, l, quotient)
        if json_argv not in seen:
            return ["no JSON render of the same graph in this pass"]
        return oracles.check_dot(out, json.loads(seen[json_argv]))

    return Op(argv, token, n, check)


def _export_round():
    return [_graph("C1", 8, 4, 0, "json"), _graph("C1", 8, 4, 0, "dot"),
            _graph("A2odd", 8, 4, 4, "json"), _graph("A2odd", 8, 4, 4, "dot"),
            _graph("A2odd", 8, 4, 4, "json", quotient=True)]


WORKLOADS = {
    "suites": [_verify(t, 5) for t in ("C1", "A2even", "A2evenDagger", "A2odd")]
    + [_verify(t, 12) for t in ("B1", "D1", "D2")]
    + [_decompose(t, 5) for t in ("C1", "A2even", "A2evenDagger", "A2odd")],
    # every graph twice, in separate invocations, for the determinism check
    "export": _export_round() + _export_round(),
    "relations": [_fock("C1", 4, ("relations", "polarization")),
                  _fock("A2odd", 4, ("relations", "polarization"))],
    "elimination": [_fock("A2odd", 4, ("crystal_match", "highest", "deltaword"))],
}


def _child_env():
    """The caller's environment without interpreter settings (bytecode cache,
    buffering, hash seed) or the CLI's thread count, which all move timings."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PYTHON") and key != "WEDGE_CRYSTAL_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _child_env()


def invoke(argv, deadline, spans_file=None):
    """Run one CLI call in a fresh interpreter: (record or None, stdout)."""
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, str(HERE / "child.py"), str(write_fd)]
    if spans_file is not None:
        cmd += ["--trace", str(spans_file)]
    cmd += ["--", *argv]
    start = time.monotonic_ns()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, pass_fds=(write_fd,))
    finally:
        os.close(write_fd)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        os.close(read_fd)
        print(f"timeout: {' '.join(argv)}", file=sys.stderr)
        return None, ""
    with os.fdopen(read_fd) as fh:
        raw = fh.read()
    if not raw:
        print(f"no record from: {' '.join(argv)}\n{err.decode()[-2000:]}",
              file=sys.stderr)
        return None, ""
    record = json.loads(raw)
    record["setup_ns"] = record["ready_ns"] - start
    return record, out.decode()


def run_pass(ops, deadline, spans_dir=None):
    """Run every operation once; returns the pass summary."""
    seen, records, failed, problems = {}, [], 0, []
    for index, op in enumerate(ops):
        spans = None if spans_dir is None else spans_dir / f"{index:02d}.spans"
        record, out = invoke(op.argv, deadline, spans)
        if record is None or record["rc"] not in (0, 1):
            failed += 1
            continue
        records.append(record)
        try:
            found = op.check(record["rc"], out, seen)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        seen.setdefault(tuple(op.argv), out)
        problems += [f"{' '.join(op.argv)}: {p}" for p in found]
    result = {
        "failed": failed,
        "problems": problems,
        "wall_s": sum(r["main_ns"] for r in records) / 1e9,
        "cpu_s": sum(r["cpu_ns"] for r in records) / 1e9,
        "setup_s": sum(r["setup_ns"] for r in records) / 1e9,
        "peak_rss_mb": max((r["maxrss_kb"] for r in records), default=0) / 1024,
    }
    if spans_dir is not None:
        totals = {"layers": {}, "counts": {}, "missing": set(),
                  "states": sum(oracles.ground_set_size(op.token, op.n) for op in ops)}
        for r in records:
            summary = r["trace"]
            for layer, entry in summary["layers"].items():
                acc = totals["layers"].setdefault(layer, {"calls": 0, "self_ns": 0})
                acc["calls"] += entry["calls"]
                acc["self_ns"] += entry["self_ns"]
            for key, value in summary["counts"].items():
                totals["counts"][key] = totals["counts"].get(key, 0) + value
            totals["missing"].update(summary["missing"])
        result["layers"], result["missing"] = tracer.layer_metrics(totals)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wedge_crystal" / "cli.py").is_file():
        print("no wedge_crystal sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    record, _ = invoke(WARMUP, deadline)  # byte-compiles the package, untimed
    if record is None or record["rc"] != 0:
        print("the warm-up invocation failed", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload]
    spans_root = OUT / "spans" / args.workload
    if args.trace:
        spans_root.mkdir(parents=True, exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_pass(ops, deadline))
        if args.trace:
            traced.append(run_pass(ops, deadline, spans_root))
        elapsed = time.monotonic() - start
        rounds = len(plain)
        print(f"round {rounds} at {elapsed:.1f} s: " + " ".join(
            f"{key} {plain[-1][key]:.4f}"
            for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")), file=sys.stderr)
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    passes = plain + traced
    attempted = len(passes) * len(ops)
    failed = sum(p["failed"] for p in passes)
    problems = [p for run in passes for p in run["problems"]]
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)

    def median(runs, key):
        return statistics.median(run[key] for run in runs)

    if args.trace:
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit}
                   for name, (unit, _, _) in tracer.METRICS.items()}
        metrics["trace.overhead_s"] = {
            "value": median(traced, "wall_s") - median(plain, "wall_s"), "unit": "s"}
        missing = sorted({m for p in traced for m in p["missing"]})
        if missing:
            print(f"missing per-layer metrics (reported as 0): {', '.join(missing)}")
    else:
        metrics = {
            "wall_s": {"value": median(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median(plain, "cpu_s"), "unit": "s"},
            "setup_s": {"value": median(plain, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median(plain, "peak_rss_mb"), "unit": "MiB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
