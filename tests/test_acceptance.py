"""Acceptance suite: every criterion exact, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
All arithmetic is exact; a criterion either holds on the nose or fails.
"""

import time

from wedge_crystal.cartan import ALL_LABELS, from_label
from wedge_crystal import bicrystal, crystal, fock, theorems
from wedge_crystal.cli import graph_document

DOUBLED = ("C1", "A2even", "A2evenDagger", "A2odd")
SINGLE = ("B1", "D1", "D2")


def _report(num, ok, desc):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_component_partition():
    ok = True
    worst = 0.0
    for token in DOUBLED:
        for n in range(2, 8):
            start = time.time()
            r = theorems.verify_component_partition(from_label(token, n))
            worst = max(worst, time.time() - start)
            ok = ok and r.passed
    ok = ok and worst < 10.0
    _report(1, ok, f"component partition, four doubled types, n=2..7 "
                   f"(worst case {worst:.2f}s)")


def test_criterion_2_spin_decomposition():
    ok = True
    for token in SINGLE:
        for n in range(2, 11):
            r = theorems.verify_spin_decomposition(from_label(token, n))
            ok = ok and r.passed
    _report(2, ok, "single-column decomposition with multiplicity-one weights, "
                   "three types, n=2..10")


def test_criterion_3_classical_branching():
    ok = True
    for token in DOUBLED:
        for n in range(2, 8):
            r = theorems.verify_classical_branching(from_label(token, n))
            ok = ok and r.passed
    _report(3, ok, "classical branching multisets, four doubled types, n=2..7")


def test_criterion_4_closed_string_formulas():
    ok = True
    for n in range(2, 9):
        t = from_label("C1", n)
        for x in crystal.all_elements(t):
            s = bicrystal.sigma(n, x)
            if s != bicrystal.sigma_closed(n, x) or s != bicrystal.sigma_by_strings(n, x):
                ok = False
                break
    _report(4, ok, "closed string-position formulas match operator strings, "
                   "n=2..8 exhaustive")


def test_criterion_5_involution():
    ok = True
    for n in range(2, 8):
        t = from_label("A2odd", n)
        for k in range(1, n):
            ok = ok and theorems.verify_sigma_range(t, k).passed
            ok = ok and theorems.verify_involution_commutes(t, k).passed
    _report(5, ok, "string-position range and involution commutation, n=2..7")


def test_criterion_6_delta_shift():
    ok = True
    for n in range(2, 8):
        r = theorems.verify_delta_shift(from_label("A2odd", n))
        ok = ok and r.passed
    _report(6, ok, "reflection word swaps the paired representatives, n=2..7")


def test_criterion_7_sigma_characterization():
    ok = True
    for token in DOUBLED:
        for n in range(2, 8):
            r = theorems.verify_sigma_characterization(from_label(token, n))
            ok = ok and r.passed
    _report(7, ok, "components equal their string-position level sets, "
                   "four doubled types, n=2..7")


def test_criterion_8_multiplicities():
    ok = True
    for token in DOUBLED:
        for n in range(2, 8):
            r = theorems.verify_multiplicities(from_label(token, n))
            ok = ok and r.passed
    _report(8, ok, "irreducible multiplicities in the full ground set, n=2..7")


def test_criterion_9_symbolic_module():
    ok = True
    start = time.time()
    for token in ALL_LABELS:
        for n in (2, 3, 4, 5):
            fac = fock.factors(from_label(token, n))
            ok = ok and all(c.ok for c in fock.verify_relations(fac))
            ok = ok and all(c.ok for c in fock.verify_weight_compatibility(fac))
            ok = ok and all(c.ok for c in fock.verify_polarization(fac))
            ok = ok and all(c.ok for c in fock.crystal_match(fock.expand(fac)))
    elapsed = time.time() - start
    _report(9, ok, f"defining relations, weights, polarization, lattice regularity "
                   f"and crystal match for n=2..5, all types ({elapsed:.1f}s)")


def test_criterion_10_figures():
    ok = True
    # first figure: all-double type, (k,l) = (2,1) at n=3
    t = from_label("C1", 3)
    doc = graph_document(t, 2, 1)
    elements = crystal.all_elements(t)
    label = theorems.partition_ids(t).label
    root = label[crystal.v_kl(t, 2, 1)]
    brute = {x for x in elements if label[x] == root}
    ids = set(doc["ids"])
    ok = ok and ids == brute
    level = {x for x in elements if bicrystal.sigma(3, x) == (0, 1)}
    ok = ok and ids == level
    edge_count = sum(1 for x in elements if x in ids
                     for i in range(4) if crystal.f_tilde(t, i, x) is not None
                     and crystal.f_tilde(t, i, x) in ids)
    ok = ok and len(doc["edges"]) == edge_count

    # second figure: mixed type at its dictated l = n - k
    t = from_label("A2even", 3)
    doc = graph_document(t, 2, None)
    ok = ok and doc["header"]["l"] == 1
    ids = set(doc["ids"])
    elements = crystal.all_elements(t)
    label = theorems.partition_ids(t).label
    root = label[crystal.v_kl(t, 2, 1)]
    ok = ok and ids == {x for x in elements if label[x] == root}
    level = {x for x in elements
             if bicrystal.sigma(3, x) in {(2, 1), (1, 1), (0, 1)}}
    ok = ok and ids == level

    # third figure: fork type quotient at k = 2
    t = from_label("A2odd", 3)
    doc = graph_document(t, 2, None, quotient=True)
    g = crystal.component(t, crystal.v_kl(t, 2, 1))
    q = bicrystal.quotient_graph(g, 2)
    ok = ok and len(doc["ids"]) == len(q.orbits)
    ok = ok and len(doc["edges"]) == len(q.edges)
    plus_ids = {x for x in crystal.all_elements(t)
                if bicrystal.sigma(3, x) in {(0, 1), (2, 1)}}
    ok = ok and {p for p, _ in q.orbits} == plus_ids
    _report(10, ok, "figure regeneration matches brute-force closures and "
                    "level-set descriptions")
