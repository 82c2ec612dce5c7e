"""Tests of the benchmark's output checks against the program at small rank,
and of the traced child.

Run from the root of a checkout: python3 perfbench/test_oracles.py
"""

import contextlib
import io
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from wedge_crystal import cli  # noqa: E402

MATRIX_TYPES = ("C1", "A2even", "A2evenDagger", "A2odd")


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def graph(token, n, k, l, fmt="json", quotient=False):
    argv = ["graph", "--type", token, "--n", n, "--k", k, "--l", l, "--format", fmt]
    return run_cli(*argv, *(["--quotient"] if quotient else []))


class ClosedForms(unittest.TestCase):
    def test_sizes_sum_to_ground_set(self):
        for token in MATRIX_TYPES:
            for n in range(2, 10):
                total = sum(oracles.component_size(token, n, k, l)
                            for k, l in oracles.component_keys(token, n))
                self.assertEqual(total, 4 ** n, (token, n))

    def test_decompose_matches_closed_forms(self):
        for token in MATRIX_TYPES:
            for n in range(2, 6):
                rc, out = run_cli("decompose", "--format", "json", "--type", token,
                                  "--n", n)
                self.assertEqual(oracles.check_decompose(token, n, rc, out), [],
                                 (token, n))

    def test_cartan_table_is_symmetrizable_chain(self):
        a = oracles.cartan_matrix("C1", 4)
        self.assertEqual([a[0][1], a[1][0], a[4][3], a[3][4]], [-1, -2, -1, -2])
        a = oracles.cartan_matrix("A2odd", 4)
        self.assertEqual([a[0][2], a[2][0], a[0][1]], [-1, -1, 0])


class Graphs(unittest.TestCase):
    def test_every_component_at_rank_4(self):
        n = 4
        for token in MATRIX_TYPES:
            for k, l in oracles.component_keys(token, n):
                rc, out = graph(token, n, k, l)
                self.assertEqual(rc, 0)
                doc = json.loads(out)
                self.assertEqual(oracles.check_graph(doc, token, n, k, l, False), [],
                                 (token, k, l))
                rc, dot = graph(token, n, k, l, "dot")
                self.assertEqual(oracles.check_dot(dot, doc), [], (token, k, l))
                if token == "A2odd" and 0 < k < n:
                    rc, out = graph(token, n, k, l, quotient=True)
                    self.assertEqual(oracles.check_graph(
                        json.loads(out), token, n, k, l, True), [], (token, k, l))

    def test_corruptions_are_caught(self):
        rc, out = graph("A2odd", 4, 2, 2)
        doc = json.loads(out)
        rc, dot = graph("A2odd", 4, 2, 2, "dot")

        def problems(mutate):
            bad = json.loads(out)
            mutate(bad)
            return oracles.check_graph(bad, "A2odd", 4, 2, 2, False)

        self.assertTrue(problems(lambda d: d["vertices"].pop()))
        self.assertTrue(problems(lambda d: d["vertices"][3]["weight"].__setitem__(0, 9)))
        self.assertTrue(problems(lambda d: d["edges"][5].__setitem__("color", 1)))
        self.assertTrue(problems(lambda d: d["edges"].pop(7)))
        self.assertTrue(problems(lambda d: d["vertices"][2].__setitem__("sigma", [0, 0])))
        self.assertTrue(oracles.check_dot(dot.replace("#e41a1c", "#000000", 1), doc))
        self.assertTrue(oracles.check_dot(dot, {**doc, "edges": doc["edges"][1:]}))


class Verdicts(unittest.TestCase):
    def test_suite_names(self):
        for token in oracles.LABELINGS:
            rc, out = run_cli("verify", "--suite", "all", "--type", token, "--n", 3)
            self.assertEqual(oracles.check_verify(token, 3, rc, out), [], token)
            self.assertTrue(oracles.check_verify(
                token, 3, rc, "\n".join(out.splitlines()[1:])))

    def test_fock_check_counts(self):
        cases = [("C1", 2, ("relations", "polarization")),
                 ("A2odd", 3, ("relations", "polarization")),
                 ("A2odd", 2, ("crystal_match", "highest", "deltaword")),
                 ("A2odd", 3, ("crystal_match", "highest", "deltaword"))]
        for token, n, parts in cases:
            flags = [f"--{p.replace('_', '-')}" for p in parts]
            rc, out = run_cli("fock", "verify", *flags, "--type", token, "--n", n)
            self.assertEqual(oracles.check_fock(token, n, parts, rc, out), [],
                             (token, n, parts))
            fewer = "\n".join(out.splitlines()[1:]) + "\n"
            self.assertTrue(oracles.check_fock(token, n, parts, rc, fewer))


class Tracing(unittest.TestCase):
    def test_traced_child_reports_layers_and_writes_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            spans = Path(tmp) / "00.spans"
            record, out = run.invoke(
                ["graph", "--type", "A2odd", "--n", "3", "--k", "2", "--l", "1",
                 "--quotient", "--format", "json"], time.monotonic() + 60, spans)
            self.assertEqual(record["rc"], 0)
            summary = record["trace"]
            self.assertEqual(summary["missing"], [])
            layers = summary["layers"]
            for layer in ("crystal.op", "crystal.component", "bicrystal.quotient",
                          "cli.graph_document", "cli.render", "cli.main"):
                self.assertGreater(layers[layer]["calls"], 0, layer)
            self.assertTrue(all(e["self_ns"] >= 0 for e in layers.values()))
            with open(spans, "rb") as fh:
                header = json.loads(fh.readline())
            self.assertEqual(header["count"],
                             sum(e["calls"] for e in layers.values()))
        totals = {**summary, "states": 4 ** 3}
        values, missing = tracer.layer_metrics(totals)
        self.assertEqual(missing, [])
        self.assertEqual(values["bicrystal.varsigma_calls"], 15)  # one per orbit
        totals["missing"] = ["bicrystal:quotient_graph"]
        values, missing = tracer.layer_metrics(totals)
        self.assertEqual(missing, ["bicrystal.quotient_self_s"])


if __name__ == "__main__":
    unittest.main()
