import importlib.util
import json
import time
from pathlib import Path

import pytest

from wedge_crystal import crystal
from wedge_crystal.cartan import from_label
from wedge_crystal.cli import PALETTE, graph_document, main, render_dot, render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(doc):
    """A column document of :func:`graph_document` in the record shape that
    ``render_json`` prints: one object per vertex and per edge."""
    vertices = [{"id": x, "text": text, "weight": list(w),
                 "sigma": None if s is None else list(s)}
                for x, text, w, s in zip(doc["ids"], doc["text"], doc["weight"],
                                         doc["sigma"])]
    edges = [{"src": s, "dst": d, "color": c} for s, d, c in doc["edges"]]
    return {"header": doc["header"], "vertices": vertices, "edges": edges}


def columns(data):
    """The column document of a parsed JSON render, the inverse of
    :func:`records`."""
    vs = data["vertices"]
    return {"header": data["header"], "ids": [v["id"] for v in vs],
            "text": [v["text"] for v in vs],
            "weight": [tuple(v["weight"]) for v in vs],
            "sigma": [None if v["sigma"] is None else tuple(v["sigma"]) for v in vs],
            "edges": [(e["src"], e["dst"], e["color"]) for e in data["edges"]]}


def assert_same_render(got, expected):
    """Equal strings, or a failure naming the first differing line: pytest's
    own diff of two renders of a megabyte or more takes minutes."""
    if got == expected:
        return
    a, b = got.splitlines(), expected.splitlines()
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    pytest.fail(f"renders differ at line {at + 1} of {len(a)} and {len(b)}: "
                f"{a[at:at + 1]!r} != {b[at:at + 1]!r}", pytrace=False)


def test_graph_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "graph", "--type", "C1", "--n", "3", "--k", "2",
                         "--l", "1", "--format", "json")
    code2, out2, _ = run(capsys, "graph", "--type", "C1", "--n", "3", "--k", "2",
                         "--l", "1", "--format", "json")
    assert code1 == code2 == 0
    assert_same_render(out1, out2)
    doc = json.loads(out1)
    assert len(doc["vertices"]) == 14
    # round trip is byte identical
    assert_same_render(render_json(columns(json.loads(out1))) + "\n", out1)


def _oracle(doc):
    return json.dumps(records(doc), sort_keys=True, indent=2, separators=(",", ": "))


def _dot_oracle(doc):
    """The DOT form of a document, written record by record."""
    h = doc["header"]
    title = f"{h['type']} n={h['n']} k={h['k']} l={h['l']}"
    lines = ["digraph crystal {", f'  label="{title}{" quotient" * h["quotient"]}";',
             "  rankdir=TB;", '  node [shape=box, fontname="Courier"];']
    data = records(doc)
    lines += [f'  {v["id"]} [label="{v["text"]}"];' for v in data["vertices"]]
    lines += [f'  {e["src"]} -> {e["dst"]} [color="{PALETTE[e["color"] % len(PALETTE)]}", '
              f'label="{e["color"]}"];' for e in data["edges"]]
    return "\n".join(lines + ["}"]) + "\n"


def _documents(token, n):
    """Every component of one labeling, with every fork-plus-double quotient."""
    from wedge_crystal.cartan import DOUBLE, FORK, from_label
    from wedge_crystal.theorems import h_diamond

    t = from_label(token, n)
    if not t.doubled:
        return [graph_document(t, k) for k in (n, n - 1)]
    docs = [graph_document(t, k, l) for k, l in h_diamond(t)]
    if t.diamond == (FORK, DOUBLE):
        docs += [graph_document(t, k, n - k, True) for k in range(1, n)]
    return docs


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("token", ("B1", "C1", "D1", "A2even", "A2evenDagger",
                                   "A2odd", "D2"))
def test_render_json_equals_json_dumps(token, n):
    docs = _documents(token, n)
    for doc in docs:
        assert_same_render(render_json(doc), _oracle(doc))
        assert_same_render(render_dot(doc), _dot_oracle(doc))
    shapes = {(not doc["edges"], doc["sigma"][0] is None,
               doc["header"]["quotient"]) for doc in docs}
    if token in ("B1", "D1", "D2"):
        assert shapes == {(False, True, False)}
    elif token == "A2odd":
        # the size-one components (0, n) and (0, n-1) have no edges
        assert shapes == {(True, False, False), (False, False, False),
                          (False, False, True)}


def test_render_json_equals_json_dumps_on_export_graphs():
    c1, a2odd = from_label("C1", 8), from_label("A2odd", 8)
    for doc in (graph_document(c1, 4, 0), graph_document(a2odd, 4, 4),
                graph_document(a2odd, 4, 4, True)):
        assert_same_render(render_json(doc), _oracle(doc))
        assert_same_render(render_dot(doc), _dot_oracle(doc))


def test_graph_document_columns():
    from wedge_crystal import bicrystal

    t = from_label("A2odd", 4)
    doc = graph_document(t, 2, 2)
    g = crystal.component(t, crystal.v_kl(t, 2, 2))
    assert list(doc["ids"]) == list(g.vertices) == sorted(doc["ids"])
    assert doc["text"] == [crystal.text(t, x) for x in g.vertices]
    assert doc["weight"] == [crystal.weight(t, x) for x in g.vertices]
    assert doc["sigma"] == [bicrystal.sigma(4, x) for x in g.vertices]
    assert list(doc["edges"]) == list(g.edges)
    # render_dot reads the ids, texts and edges alone
    dot = graph_document(t, 2, 2, full=False)
    assert dot["weight"] is dot["sigma"] is None
    assert render_dot(dot) == render_dot(doc)
    # a quotient vertex is its orbit: the smaller id, the texts plus+minus
    quo = graph_document(t, 2, 2, quotient=True)
    q = bicrystal.quotient_graph(g, 2)
    assert list(quo["ids"]) == [min(pair) for pair in q.orbits]
    assert quo["text"] == [f"{crystal.text(t, p)}+{crystal.text(t, m)}"
                           for p, m in q.orbits]
    assert quo["weight"] == [crystal.weight(t, p) for p, _ in q.orbits]
    assert quo["sigma"] == [bicrystal.sigma(4, p) for p, _ in q.orbits]


@pytest.mark.parametrize("argv", [
    ("--type", "C1", "--k", "2", "--l", "1"),
    ("--type", "A2odd", "--k", "2", "--l", "1", "--quotient"),
    ("--type", "D1", "--k", "3"),
])
def test_graph_calls_no_per_vertex_kernel(capsys, monkeypatch, argv):
    from wedge_crystal import bicrystal

    def refuse(*args):
        raise AssertionError("per-vertex kernel call on the graph path")

    for fmt in ("json", "dot"):
        expected = run(capsys, "graph", "--n", "3", *argv, "--format", fmt)
        with monkeypatch.context() as m:
            for module, name in ((crystal, "text"), (crystal, "weight"),
                                 (bicrystal, "sigma")):
                m.setattr(module, name, refuse)
            assert run(capsys, "graph", "--n", "3", *argv, "--format", fmt) == expected
        assert expected[0] == 0


def test_graph_vertices_match_sigma_description():
    from wedge_crystal import bicrystal, crystal

    t = from_label("A2even", 3)
    doc = graph_document(t, 2, 1)
    ids = set(doc["ids"])
    level = {x for x in crystal.all_elements(t)
             if bicrystal.sigma(3, x) in {(2, 1), (1, 1), (0, 1)}}
    assert ids == level


def test_graph_infers_l_when_unique(capsys):
    code, out, _ = run(capsys, "graph", "--type", "A2even", "--n", "3", "--k",
                       "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["header"]["l"] == 1


def test_graph_dot_output(capsys):
    code, out, _ = run(capsys, "graph", "--type", "C1", "--n", "2", "--k", "1",
                       "--l", "0", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert 'label="1"' in out or "label=\"0\"" in out


def test_graph_quotient(capsys):
    code, out, _ = run(capsys, "graph", "--type", "A2odd", "--n", "3", "--k",
                       "2", "--quotient", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 15
    assert all("+" in v["text"] for v in doc["vertices"])


def test_graph_quotient_usage(capsys):
    code, _, err = run(capsys, "graph", "--type", "C1", "--n", "3", "--k", "2",
                       "--l", "1", "--quotient")
    assert code == 2
    assert "usage error" in err


def test_graph_spin(capsys):
    code, out, _ = run(capsys, "graph", "--type", "D1", "--n", "3", "--k", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 4
    assert doc["vertices"][0]["sigma"] is None


def test_graph_bad_kl(capsys):
    code, _, err = run(capsys, "graph", "--type", "A2even", "--n", "3", "--k",
                       "2", "--l", "2")
    assert code == 2


def test_decompose_table(capsys):
    code, out, _ = run(capsys, "decompose", "--type", "C1", "--n", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith(("#", " "))]
    assert len([ln for ln in out.splitlines()]) >= 8
    code, out_json, _ = run(capsys, "decompose", "--type", "C1", "--n", "2",
                            "--format", "json")
    data = json.loads(out_json)
    assert len(data["components"]) == 6
    assert sum(r["size"] for r in data["components"]) == 16


def test_decompose_singleton_rows(capsys):
    code, out, _ = run(capsys, "decompose", "--type", "A2odd", "--n", "2",
                       "--format", "json")
    data = json.loads(out)
    keys = {tuple(r["key"]) for r in data["components"]}
    assert (0, 2) in keys and (0, 1) in keys
    sizes = {tuple(r["key"]): r["size"] for r in data["components"]}
    assert sizes[(0, 2)] == 1 and sizes[(0, 1)] == 1


def test_decompose_spin(capsys):
    code, out, _ = run(capsys, "decompose", "--type", "D1", "--n", "3",
                       "--format", "json")
    data = json.loads(out)
    assert [r["size"] for r in data["components"]] == [4, 4]


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--type", "C1",
                       "--n", "3")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop46", "--type",
                       "A2odd", "--n", "3", "--k", "1")
    assert code == 0


def test_verify_with_k_restriction(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm58", "--type", "C1",
                       "--n", "3", "--k", "2")
    assert code == 0


def test_verify_failure_dumps_json(capsys, monkeypatch):
    from wedge_crystal import theorems

    def broken(t):
        r = theorems.SuiteResult(name="spin", passed=True)
        r.note("synthetic discrepancy")
        return r

    monkeypatch.setattr(theorems, "verify_spin_decomposition", broken)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--type", "B1",
                       "--n", "2")
    assert code == 1
    assert "FAIL" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["failures"][0]["discrepancies"] == ["synthetic discrepancy"]


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "prop41", "--type", "B1",
                       "--n", "3")
    assert code == 2
    assert "usage error" in err


def test_verify_spin(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spin", "--type", "D2",
                       "--n", "4")
    assert code == 0


def test_diamond_flag(capsys):
    # --type also takes the end-shape pair, bare or in parentheses
    code, out, _ = run(capsys, "verify", "--suite", "spin", "--type",
                       "11,11", "--n", "3")
    assert code == 0
    assert run(capsys, "verify", "--suite", "spin", "--type", "(11,11)",
               "--n", "3") == (code, out, "")
    assert out == "[spin] PASS D_n^(1) n=3\n"


def test_fock_verify(capsys):
    code, out, _ = run(capsys, "fock", "verify", "--type", "D2", "--n", "2",
                       "--relations")
    assert code == 0
    assert "checks passed" in out


def test_fock_verify_crystal_match(capsys):
    code, out, _ = run(capsys, "fock", "verify", "--type", "B1", "--n", "2",
                       "--crystal-match")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "spin", "--type", "E8", "--n", "3"),
    ("verify", "--suite", "spin", "--type", "B1", "--n", "1"),
    ("verify", "--suite", "spin", "--type", "2,3", "--n", "3"),
    # end shapes that no labeling has, in parentheses and bare
    ("decompose", "--type", "(1,11)", "--n", "3"),
    ("graph", "--type", "2,11", "--n", "3", "--k", "3"),
    ("verify", "--suite", "lem44", "--type", "A2odd", "--n", "3", "--k", "7"),
    ("verify", "--suite", "prop41", "--type", "B1", "--n", "3"),
    ("graph", "--type", "C1", "--n", "3", "--k", "2", "--l", "1", "--quotient"),
    ("graph", "--type", "A2even", "--n", "3", "--k", "2", "--l", "2"),
    ("graph", "--type", "B1", "--n", "3", "--k", "1"),
    ("fock", "verify", "--type", "C1", "--n", "2", "--deltaword"),
    ("fock", "verify", "--type", "B1", "--n", "2", "--highest"),
    ("fock", "verify", "--type", "C1", "--n", "0", "--relations"),
    ("graph", "--type", "D1", "--n", "3", "--k", "3", "--quotient"),
    ("graph", "--type", "B1", "--n", "3", "--k", "3", "--l", "1"),
    ("graph", "--type", "D2", "--n", "3", "--k", "2", "--l", "0",
     "--format", "json"),
    # an explicit suite without a k range refuses --k
    ("verify", "--suite", "cor57", "--type", "C1", "--n", "3", "--k", "99"),
    ("verify", "--suite", "prop41", "--type", "C1", "--n", "3", "--k", "1"),
    ("verify", "--suite", "thm42", "--type", "A2odd", "--n", "3", "--k", "1"),
    ("verify", "--suite", "spin", "--type", "B1", "--n", "3", "--k", "3"),
    # a two-column k outside 0..n, with and without --l
    ("graph", "--type", "C1", "--n", "3", "--k", "7"),
    ("graph", "--type", "A2odd", "--n", "3", "--k", "-1", "--l", "0"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ("graph", "--n", "3", "--k", "3"),
    ("decompose", "--n", "3"),
    ("verify", "--suite", "spin", "--n", "3"),
    ("fock", "verify", "--n", "2"),
    # the pair goes to --type; there is no second spelling
    ("verify", "--suite", "spin", "--diamond", "11,11", "--n", "3"),
])
def test_missing_type_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith("error: the following arguments are required: --type\n")


def test_usage_errors_name_the_bad_k(capsys):
    assert run(capsys, "graph", "--type", "C1", "--n", "3", "--k", "7")[2] == \
        "usage error: k must lie in 0..3, got 7\n"
    assert run(capsys, "verify", "--suite", "cor57", "--type", "C1", "--n", "3",
               "--k", "99")[2] == \
        "usage error: the multiplicity suite takes no --k\n"


def test_internal_fault_exits_3(capsys, monkeypatch):
    from wedge_crystal import fock

    def broken(rep, indices=None):
        raise ArithmeticError("singular change of basis")

    monkeypatch.setattr(fock, "crystal_match", broken)
    code, out, err = run(capsys, "fock", "verify", "--type", "B1", "--n", "2",
                         "--crystal-match")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"internal_error": "ArithmeticError",
                                    "message": "singular change of basis"}


def test_a_fault_in_a_later_group_keeps_the_earlier_verdicts(capsys, monkeypatch):
    from wedge_crystal import fock

    argv = ("fock", "verify", "--type", "B1", "--n", "2")
    relations = run(capsys, *argv, "--relations")[1].splitlines()[:-1]

    def broken(rep, indices=None):
        raise ArithmeticError("singular change of basis")

    monkeypatch.setattr(fock, "crystal_match", broken)
    code, out, err = run(capsys, *argv, "--relations", "--crystal-match")
    assert code == 3 and relations and out.splitlines() == relations
    assert json.loads(err)["message"] == "singular change of basis"


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    # a delta word asked of a type that has none is an internal fault, not
    # bad input
    monkeypatch.setattr(crystal, "component", lambda t, x: crystal.delta_word(t, 1))
    code, _, err = run(capsys, "graph", "--type", "C1", "--n", "2", "--k", "1",
                       "--l", "0")
    assert code == 3
    assert json.loads(err)["internal_error"] == "ValueError"


def test_internal_value_error_in_a_suite_is_not_a_usage_error(capsys, monkeypatch):
    from wedge_crystal import theorems

    # suite input is validated before any suite runs, so a ValueError
    # raised inside one is an internal fault
    monkeypatch.setattr(theorems, "verify_spin_decomposition",
                        lambda t: crystal.delta_word(t, 1))
    code, out, err = run(capsys, "verify", "--suite", "spin", "--type", "B1",
                         "--n", "2")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"internal_error": "ValueError",
                                    "message": "delta word is only defined for 11,2 types"}


def test_verify_prints_each_verdict_as_its_suite_ends(capsys, monkeypatch):
    from wedge_crystal import theorems

    t = from_label("A2odd", 3)
    names = theorems.select_suites(t, "all", None)
    code, out, err = run(capsys, "verify", "--suite", "all", "--type", "A2odd", "--n", "3")
    assert code == 0 and err == ""
    passed = out.splitlines()
    assert passed == [f"[{name}] PASS {t.label} n=3" for name in names]
    # a suite after the first three raises: their verdicts are already out
    monkeypatch.setattr(theorems, SUITE_FUNCTIONS[names[3]],
                        lambda *args: crystal.delta_word(from_label("C1", 3), 1))
    code, out, err = run(capsys, "verify", "--suite", "all", "--type", "A2odd", "--n", "3")
    assert code == 3
    assert out.splitlines() == passed[:3]
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["internal_error"] == "ValueError"


def test_fock_failure_prints_witness(capsys, monkeypatch):
    from wedge_crystal import fock

    build = fock.factors

    def mutated(t):
        fac = build(t)
        op = fac.f[1]
        key = min(op.terms)
        local = dict(op.terms[key])
        rc = min(local)
        local[rc] = {e: -v for e, v in local[rc].items()}
        fac.f[1] = fock.Factored(op.bits, {**op.terms, key: local})
        return fac

    code, out, _ = run(capsys, "fock", "verify", "--type", "C1", "--n", "2",
                       "--polarization")
    assert code == 0 and "witness" not in out
    monkeypatch.setattr(fock, "factors", mutated)
    code, out, _ = run(capsys, "fock", "verify", "--type", "C1", "--n", "2",
                       "--polarization")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("[FAIL] polarization e(1)")
    assert lines[at + 1].startswith("  witness: entry (")
    assert all(lines[k - 1].startswith("[FAIL]")
               for k, line in enumerate(lines) if line.startswith("  witness:"))


def _perfbench_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("token", ("B1", "C1", "D1", "A2even", "A2evenDagger",
                                   "A2odd", "D2"))
def test_relations_at_rank_12_read_only_the_factors(capsys, monkeypatch, token):
    from wedge_crystal import fock

    def refuse(*args):
        raise AssertionError("the relation groups read a basis state")

    monkeypatch.setattr(fock, "_column", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "fock", "verify", "--relations", "--polarization",
                         "--type", token, "--n", "12")
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    total = _perfbench_oracles().fock_check_count(token, 12, ("relations", "polarization"))
    *checks, summary = out.splitlines()
    assert len(checks) == total and all(line.startswith("[ok] ") for line in checks)
    assert summary == f"{total}/{total} checks passed for {from_label(token, 12).label} n=12"
    assert elapsed < 10, elapsed


@pytest.mark.parametrize("n", (12, pytest.param(20, marks=pytest.mark.large)))
@pytest.mark.parametrize("token", ("B1", "C1", "D1", "A2even", "A2evenDagger",
                                   "A2odd", "D2"))
def test_crystal_match_at_rank_12_and_20_reads_one_block_per_class(capsys, monkeypatch,
                                                                   token, n):
    from wedge_crystal import fock

    column = fock._column
    calls = []

    def counted(*args):
        calls.append(args)
        return column(*args)

    monkeypatch.setattr(fock, "_column", counted)
    start = time.perf_counter()
    code, out, err = run(capsys, "fock", "verify", "--crystal-match",
                         "--type", token, "--n", str(n))
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    total = _perfbench_oracles().fock_check_count(token, n, ("crystal_match",))
    *checks, summary = out.splitlines()
    assert len(checks) == total and all(line.startswith("[ok] ") for line in checks)
    assert summary == f"{total}/{total} checks passed for {from_label(token, n).label} n={n}"
    # at most 4 classes of at most 16 members, each read once for e_i and f_i
    assert len(calls) <= 128 * (n + 1), len(calls)
    assert elapsed < 10, elapsed


# the function behind each --suite choice, in the order argparse lists them
SUITE_FUNCTIONS = {
    "prop41": "verify_component_partition",
    "thm42": "verify_classical_branching",
    "lem44": "verify_sigma_range",
    "prop46": "verify_involution_commutes",
    "thm58": "verify_sigma_characterization",
    "cor57": "verify_multiplicities",
    "spin": "verify_spin_decomposition",
    "deltaword": "verify_delta_shift",
}


def _record_suites(monkeypatch):
    """Replace every suite function by one that records its call and passes."""
    from wedge_crystal import theorems

    calls = []
    for name, func in SUITE_FUNCTIONS.items():
        def recording(t, *k, name=name):
            calls.append((name, k))
            return theorems.SuiteResult(name=name, passed=True)

        monkeypatch.setattr(theorems, func, recording)
    return calls


@pytest.mark.parametrize("token, expected", [
    ("B1", ["spin"]),
    ("D1", ["spin"]),
    ("D2", ["spin"]),
    ("C1", ["prop41", "thm42", "thm58", "cor57"]),
    ("A2even", ["prop41", "thm42", "thm58", "cor57"]),
    ("A2evenDagger", ["prop41", "thm42", "thm58", "cor57"]),
    ("A2odd", ["prop41", "thm42", "thm58", "cor57", "lem44", "prop46",
               "deltaword"]),
])
def test_all_runs_the_applicable_suites_in_order(capsys, monkeypatch, token, expected):
    from wedge_crystal import theorems
    t = from_label(token, 3)
    assert theorems.select_suites(t, "all", None) == expected
    calls = _record_suites(monkeypatch)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--type", token, "--n", "3")
    assert code == 0
    assert [name for name, _ in calls] == expected
    assert out.splitlines() == [f"[{name}] PASS {t.label} n=3" for name in expected]


@pytest.mark.parametrize("suite", SUITE_FUNCTIONS)
def test_each_suite_choice_dispatches_to_its_function(capsys, monkeypatch, suite):
    calls = _record_suites(monkeypatch)
    token = {"spin": "B1", "lem44": "A2odd", "prop46": "A2odd",
             "deltaword": "A2odd"}.get(suite, "C1")
    code, _, _ = run(capsys, "verify", "--suite", suite, "--type", token, "--n", "3")
    assert code == 0
    takes_k = suite in ("lem44", "prop46", "thm58", "deltaword")
    assert calls == [(suite, (None,) if takes_k else ())]
    calls.clear()
    if takes_k:
        run(capsys, "verify", "--suite", suite, "--type", token, "--n", "3", "--k", "2")
        assert calls == [(suite, (2,))]


def test_suite_choices_keep_their_order(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus", "--type", "C1", "--n", "3"])
    choices = ", ".join(f"'{name}'" for name in (*SUITE_FUNCTIONS, "all"))
    assert f"(choose from {choices})" in capsys.readouterr().err


# the functions behind each fock verify flag, in the order argparse lists them
GROUP_FUNCTIONS = {
    "--relations": ("verify_relations", "verify_weight_compatibility"),
    "--polarization": ("verify_polarization",),
    "--crystal-match": ("crystal_match",),
    "--highest": ("verify_highest",),
    "--deltaword": ("verify_null_shift",),
}


def _record_checks(monkeypatch):
    """Replace every check function by one that records its call and passes."""
    from wedge_crystal import fock

    calls = []
    for funcs in GROUP_FUNCTIONS.values():
        for func in funcs:
            def recording(rep, func=func):
                calls.append(func)
                return [fock.Check(func, True)]

            monkeypatch.setattr(fock, func, recording)
    return calls


def _passed(calls, label, n):
    return [f"[ok] {func}" for func in calls] + \
        [f"{len(calls)}/{len(calls)} checks passed for {label} n={n}"]


@pytest.mark.parametrize("flag", GROUP_FUNCTIONS)
def test_each_fock_flag_dispatches_to_its_functions(capsys, monkeypatch, flag):
    calls = _record_checks(monkeypatch)
    code, out, _ = run(capsys, "fock", "verify", "--type", "A2odd", "--n", "2", flag)
    assert code == 0
    assert calls == list(GROUP_FUNCTIONS[flag])
    assert out.splitlines() == _passed(calls, from_label("A2odd", 2).label, 2)


@pytest.mark.parametrize("token", ("B1", "C1", "D1", "A2even", "A2evenDagger",
                                   "A2odd", "D2"))
def test_fock_default_runs_the_applicable_groups_in_order(capsys, monkeypatch, token):
    calls = _record_checks(monkeypatch)
    code, out, _ = run(capsys, "fock", "verify", "--type", token, "--n", "2")
    assert code == 0
    # --deltaword needs the fork-plus-double type and --highest a matrix type;
    # every other group applies everywhere
    t = from_label(token, 2)
    skipped = {"--deltaword": token != "A2odd", "--highest": not t.doubled}
    assert calls == [func for flag, funcs in GROUP_FUNCTIONS.items()
                     if not skipped.get(flag) for func in funcs]
    assert out.splitlines() == _passed(calls, t.label, 2)


def test_fock_flags_keep_their_order(capsys):
    with pytest.raises(SystemExit):
        main(["fock", "verify", "--help"])
    options = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  --")]
    assert [opt for opt in options if opt in GROUP_FUNCTIONS] == list(GROUP_FUNCTIONS)


def _parse_exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of an argument list that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ("--help",),
    (),
    ("verify", "--help"),
    ("fock", "verify", "--help"),
    ("fock",),
    ("verify", "--suite", "all", "--type", "C1"),
    ("verify", "--suite", "bogus", "--type", "C1", "--n", "3"),
    ("graph", "--type", "C1", "--n", "3", "--k", "1", "extra"),
    ("bogus", "--type", "C1", "--n", "3"),
], ids=("help", "empty", "verify-help", "fock-verify-help", "fock-alone",
        "missing-n", "bad-suite", "extra-argument", "unknown-command"))
def test_one_command_parser_reads_as_the_whole_tree(capsys, argv):
    # main builds only the parser of the command it is given; what argparse
    # prints and its exit code are those of the whole tree
    from wedge_crystal.cli import build_parser

    whole = _parse_exit(capsys, lambda a: build_parser().parse_args(a), argv)
    assert whole[0] in (0, 2) and whole[1] + whole[2]
    assert _parse_exit(capsys, main, argv) == whole


def test_cli_reads_no_private_attribute_of_the_library():
    import ast
    import pathlib

    from wedge_crystal import cli

    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in ("theorems", "fock", "crystal", "bicrystal")
               and node.attr.startswith("_")]
    assert private == []


def test_broken_pipe_ends_quietly():
    import os
    import pathlib
    import subprocess
    import sys

    import wedge_crystal

    src = str(pathlib.Path(wedge_crystal.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    # about 750 kB of JSON, far more than a pipe buffers, so the writer is
    # still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "wedge_crystal", "graph", "--type", "C1", "--n", "8",
         "--k", "4", "--l", "0", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""
