import json

import pytest

from wedge_crystal import crystal
from wedge_crystal.cartan import from_label
from wedge_crystal.cli import graph_document, main, render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "graph", "--type", "C1", "--n", "3", "--k", "2",
                         "--l", "1", "--format", "json")
    code2, out2, _ = run(capsys, "graph", "--type", "C1", "--n", "3", "--k", "2",
                         "--l", "1", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["vertices"]) == 14
    # round trip is byte identical
    assert render_json(json.loads(out1)) + "\n" == out1


def _oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "))


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
        assert render_json(doc) == _oracle(doc)
    shapes = {(not doc["edges"], doc["vertices"][0]["sigma"] is None,
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
        assert render_json(doc) == _oracle(doc)


def test_graph_vertices_match_sigma_description():
    from wedge_crystal import bicrystal, crystal

    t = from_label("A2even", 3)
    doc = graph_document(t, 2, 1)
    ids = {v["id"] for v in doc["vertices"]}
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


def test_fock_failure_prints_witness(capsys, monkeypatch):
    from wedge_crystal import fock

    build = fock.representation

    def mutated(t):
        rep = build(t)
        rc = min(rep.f[1].entries)
        rep.f[1].entries[rc] = {e: -v for e, v in rep.f[1].entries[rc].items()}
        return rep

    code, out, _ = run(capsys, "fock", "verify", "--type", "C1", "--n", "2",
                       "--polarization")
    assert code == 0 and "witness" not in out
    monkeypatch.setattr(fock, "representation", mutated)
    code, out, _ = run(capsys, "fock", "verify", "--type", "C1", "--n", "2",
                       "--polarization")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("[FAIL] polarization e(1)")
    assert lines[at + 1].startswith("  witness: entry (")
    assert all(lines[k - 1].startswith("[FAIL]")
               for k, line in enumerate(lines) if line.startswith("  witness:"))


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
    # --deltaword needs the fork-plus-double type; every other group applies
    assert calls == [func for flag, funcs in GROUP_FUNCTIONS.items()
                     if flag != "--deltaword" or token == "A2odd" for func in funcs]
    assert out.splitlines() == _passed(calls, from_label(token, 2).label, 2)


def test_fock_flags_keep_their_order(capsys):
    with pytest.raises(SystemExit):
        main(["fock", "verify", "--help"])
    options = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("  --")]
    assert [opt for opt in options if opt in GROUP_FUNCTIONS] == list(GROUP_FUNCTIONS)


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
