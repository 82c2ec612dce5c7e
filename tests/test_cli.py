import json

import pytest

from wedge_crystal import crystal
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


def test_graph_vertices_match_sigma_description():
    from wedge_crystal.cartan import from_label
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
    code, out, _ = run(capsys, "verify", "--suite", "spin", "--diamond",
                       "11,11", "--n", "3")
    assert code == 0


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
    ("verify", "--suite", "spin", "--diamond", "2,3", "--n", "3"),
    ("verify", "--suite", "spin", "--diamond", "11,11", "--n", "3",
     "--type", "D1"),
    ("verify", "--suite", "spin", "--n", "3"),
    ("verify", "--suite", "lem44", "--type", "A2odd", "--n", "3", "--k", "7"),
    ("verify", "--suite", "prop41", "--type", "B1", "--n", "3"),
    ("graph", "--type", "C1", "--n", "3", "--k", "2", "--l", "1", "--quotient"),
    ("graph", "--type", "A2even", "--n", "3", "--k", "2", "--l", "2"),
    ("graph", "--type", "B1", "--n", "3", "--k", "1"),
    ("fock", "verify", "--type", "C1", "--n", "2", "--deltaword"),
    ("fock", "verify", "--type", "C1", "--n", "0", "--relations"),
    ("graph", "--type", "D1", "--n", "3", "--k", "3", "--quotient"),
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


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
    from wedge_crystal.cartan import from_label

    t = from_label(token, 3)
    applies = {name for name, (_, (holds, _), _, _) in theorems._DOMAINS.items()
               if holds(t)}
    assert set(expected) == applies
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
