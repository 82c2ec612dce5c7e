"""Byte-identical CLI output, pinned as sha256 digests.

``tests/golden_cli.json`` maps each case (its argv joined by spaces) to the
exit code and the sha256 of stdout and stderr of one ``cli.main`` call.
The cases are the ``verify`` suites, ``decompose`` and ``graph`` renders
and ``fock verify`` check groups listed in ``golden_cases``, and the usage
errors that the program itself raises; argparse's own messages are left out, because their wrapping
follows the terminal width.  The relation checks at n = 4, 5
(``relation_cases``) and the graph renders at n = 4 (``graph_cases``) are
checked by tests of their own, and so are the benchmark's graph renders at
n = 8, pinned in ``EXPORT_DIGESTS``.  Regenerate the file
only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import time

from wedge_crystal.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

LABELS = ("B1", "C1", "D1", "A2even", "A2evenDagger", "A2odd", "D2")
COLUMN = ("B1", "D1", "D2")
MATRIX_SUITES = ("prop41", "thm42", "thm58", "cor57")
FORK_SUITES = ("lem44", "prop46", "deltaword")
FOCK_FLAGS = ("--relations", "--polarization", "--crystal-match", "--highest",
              "--deltaword")


def _pairs(label: str, n: int):
    """The (k, l) index of every component of a matrix labeling."""
    if label == "C1":
        return [(k, l) for k in range(n + 1) for l in range(n - k + 1)]
    if label == "A2even":
        return [(k, n - k) for k in range(n + 1)]
    if label == "A2evenDagger":
        return [(k, 0) for k in range(n + 1)]
    return sorted([(k, n - k) for k in range(n + 1)] + [(0, n - 1)])


def _graph_cases(label: str, n: int):
    """``graph`` in both formats on every component of one labeling at rank
    n, with the fork-plus-double quotients."""
    base = ["graph", "--type", label, "--n", str(n)]
    if label in COLUMN:
        comps = [["--k", str(k)] for k in (n, n - 1)]
    else:
        comps = [["--k", str(k), "--l", str(l)] for k, l in _pairs(label, n)]
    if label == "A2odd":
        comps += [["--k", str(k), "--l", str(n - k), "--quotient"]
                  for k in range(1, n)]
    return [[*base, *comp, "--format", fmt] for comp in comps
            for fmt in ("json", "dot")]


def golden_cases():
    cases = []
    for label in LABELS:
        for n in (2, 3, 4):
            base = ["--type", label, "--n", str(n)]
            if label in COLUMN:
                suites = ("spin",)
            else:
                suites = MATRIX_SUITES + (FORK_SUITES if label == "A2odd" else ())
            for suite in suites + ("all",):
                cases.append(["verify", "--suite", suite, *base])
            for fmt in ("table", "json"):
                cases.append(["decompose", *base, "--format", fmt])
        for n in (2, 3):
            cases += _graph_cases(label, n)
    # fock verify with the default groups and with each flag alone; --deltaword
    # is a usage error on every labeling but A2odd, and --highest on B1, D1, D2
    for label in LABELS:
        for n in (2, 3):
            for flags in ((), *((flag,) for flag in FOCK_FLAGS)):
                cases.append(["fock", "verify", "--type", label, "--n", str(n),
                              *flags])
    # the benchmark's export graphs, at n = 8
    for label, l in (("C1", 0), ("A2odd", 4)):
        for fmt in ("json", "dot"):
            cases.append(["graph", "--type", label, "--n", "8", "--k", "4",
                          "--l", str(l), "--format", fmt])
    cases.append(["graph", "--type", "A2odd", "--n", "8", "--k", "4", "--l", "4",
                  "--quotient", "--format", "json"])
    # the benchmark's suites at its rank, n = 5, on the matrix labelings
    for label in ("C1", "A2even", "A2evenDagger", "A2odd"):
        base = ["--type", label, "--n", "5"]
        cases.append(["verify", "--suite", "all", *base])
        cases.append(["decompose", *base, "--format", "json"])
    # usage errors raised by the program, not by argparse
    cases += [
        ["verify", "--suite", "lem44", "--type", "A2odd", "--n", "3", "--k", "0"],
        ["verify", "--suite", "prop46", "--type", "A2odd", "--n", "3", "--k", "3"],
        ["verify", "--suite", "thm58", "--type", "C1", "--n", "3", "--k", "4"],
        ["verify", "--suite", "all", "--type", "A2odd", "--n", "3", "--k", "-1"],
        ["verify", "--suite", "prop41", "--type", "B1", "--n", "3"],
        ["verify", "--suite", "spin", "--type", "C1", "--n", "3"],
        ["verify", "--suite", "lem44", "--type", "A2even", "--n", "3"],
        ["verify", "--suite", "deltaword", "--type", "D1", "--n", "3"],
        ["graph", "--type", "C1", "--n", "3", "--k", "2", "--l", "1", "--quotient"],
        ["graph", "--type", "A2even", "--n", "3", "--k", "2", "--l", "2"],
        ["graph", "--type", "B1", "--n", "3", "--k", "1"],
    ]
    return cases


def graph_cases():
    """Every component graph at n = 4, in both formats: DOT and JSON are
    built apart, and the n = 2, 3 renders are too small to tell them apart."""
    return [argv for label in LABELS for argv in _graph_cases(label, 4)]


def relation_cases():
    """``fock verify --relations --polarization`` at the benchmark's rank and
    one above, where the relation checks dominate."""
    return [["fock", "verify", "--relations", "--polarization", "--type", label,
             "--n", str(n)] for label in LABELS for n in (4, 5)]


def digest(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def _differing(cases):
    """The cases whose digest differs from the golden file, and the time taken."""
    golden = json.loads(GOLDEN.read_text())
    start = time.perf_counter()
    differ = [" ".join(argv) for argv in cases
              if digest(argv) != golden[" ".join(argv)]]
    return differ, time.perf_counter() - start


def test_cli_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(
        " ".join(argv) for argv in golden_cases() + relation_cases() + graph_cases())
    differ, elapsed = _differing(golden_cases())
    assert differ == []
    assert elapsed < 3.0


def test_relation_checks_match_the_golden_digests():
    differ, elapsed = _differing(relation_cases())
    assert differ == []
    assert elapsed < 3.0


def test_graph_renders_at_rank_four_match_the_golden_digests():
    differ, _ = _differing(graph_cases())
    assert differ == []


# sha256 of stdout of the benchmark's graph renders at n = 8 (perfbench's
# export workload), in both formats, with the quotient; a test of their own,
# outside the timed one above.  Written once; never regenerated.
EXPORT_DIGESTS = {
    "graph --type C1 --n 8 --k 4 --l 0 --format json":
        "87c307c537dbd826d4313a79b47e7027afdb18f424b74a50c6ab336d87827f1e",
    "graph --type C1 --n 8 --k 4 --l 0 --format dot":
        "c5c5025757c1b6edd3b8ee3f8267bc1fd08b2aa9848f95c2425304071323043e",
    "graph --type A2odd --n 8 --k 4 --l 4 --format json":
        "5873dd01818f368213041acac2fbc5a8e3938b297012e4d8dc34d46f41aaea87",
    "graph --type A2odd --n 8 --k 4 --l 4 --format dot":
        "03ff56a9701b2aec9c8b04eae80a5660194d091dbaaebc077f44b7196094f90e",
    "graph --type A2odd --n 8 --k 4 --l 4 --quotient --format json":
        "16e3745bebb80fb9bc0b5e732cdac420c4fce9ee20cb58df2ae103a47b82a5b5",
    "graph --type A2odd --n 8 --k 4 --l 4 --quotient --format dot":
        "e4aa6f5fc4b209bafdb1105e1fefbd65c0c5b666cec7bb8c0a200169e1795784",
}
EMPTY = hashlib.sha256(b"").hexdigest()


def test_export_renders_at_rank_eight_match_their_digests():
    got = {case: digest(case.split()) for case in EXPORT_DIGESTS}
    assert got == {case: {"code": 0, "stdout": sha, "stderr": EMPTY}
                   for case, sha in EXPORT_DIGESTS.items()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {" ".join(argv): digest(argv)
         for argv in golden_cases() + relation_cases() + graph_cases()},
        indent=1, sort_keys=True) + "\n")
