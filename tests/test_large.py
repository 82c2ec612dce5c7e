"""Large-rank runs, each in its own process.

``verify --suite all`` at rank 10 enumerates 4^10 matrices and takes 5-21 s
per labeling on a 2-core host; ``verify --suite thm58`` at rank 10 peaks
under 64 MiB on every matrix labeling; ``fock verify --relations
--polarization`` checks the relations, weights and polarization from the
factored generators at rank 7 and, for every labeling, at rank 20 (each under 10 s);
``fock verify --crystal-match`` compares the modified root operators at
qs = 0 with the crystal at rank 6 for every labeling and at rank 7 for
A_{2n-1}^(2); and ``fock verify`` with every group at rank 8, on C_n^(1)
and A_{2n-1}^(2), reads only the factors, so it passes in under 30 s with a
peak resident size under 128 MiB; at rank 13, on the four matrix
labelings, its highest vectors read weight spaces generated from the rule
tables, so it passes in under 10 s with a peak under 64 MiB.  Next to
their tier-1 forms, in process, run ``fock verify --crystal-match`` at
rank 20 for every labeling, under 10 s and reading one block per class
(``tests/test_cli.py``), and the crystal match against the global match
over every id at ranks 6 and 7 (``tests/test_fock.py``).  These tests
are deselected by default; run them with ``python -m pytest -m large``.
"""

import importlib.util
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


@pytest.mark.large
@pytest.mark.parametrize("token", ("C1", "A2even", "A2evenDagger", "A2odd"))
def test_verify_all_at_rank_10(token):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "wedge_crystal", "verify", "--suite", "all",
         "--type", token, "--n", "10"],
        capture_output=True, text=True, env=env, timeout=1800)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("[") and " PASS " in line for line in lines)


def _fock_verify_passes(*args):
    """Run ``fock verify`` with ``args``; every check line and the summary pass."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "wedge_crystal", "fock", "verify", *args],
        capture_output=True, text=True, env=env, timeout=1800)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *checks, summary = proc.stdout.splitlines()
    assert checks and all(line.startswith("[ok] ") for line in checks)
    assert summary.startswith(f"{len(checks)}/{len(checks)} checks passed")


@pytest.mark.large
@pytest.mark.parametrize("token", ("C1", "A2even", "A2evenDagger", "A2odd"))
def test_fock_relations_at_rank_7(token):
    _fock_verify_passes("--relations", "--polarization", "--type", token, "--n", "7")


@pytest.mark.large
@pytest.mark.parametrize("token", ("B1", "C1", "D1", "A2even", "A2evenDagger", "A2odd",
                                   "D2"))
def test_fock_relations_at_rank_20(token):
    start = time.perf_counter()
    _fock_verify_passes("--relations", "--polarization", "--type", token, "--n", "20")
    assert time.perf_counter() - start < 10


@pytest.mark.large
@pytest.mark.parametrize("token, n", [
    *((token, 6) for token in ("C1", "A2even", "A2evenDagger", "A2odd", "B1", "D1", "D2")),
    ("A2odd", 7),
])
def test_fock_crystal_match_at_rank_6_and_7(token, n):
    _fock_verify_passes("--crystal-match", "--type", token, "--n", str(n))


# ``wedge_crystal.cli.main`` on the arguments, then the child's own peak
# resident size (VmHWM) on stderr, where /proc/self/status has it
_MAIN_WITH_PEAK = """
import sys
from wedge_crystal.cli import main
code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        print(next(line for line in status if line.startswith("VmHWM:")), file=sys.stderr)
except (OSError, StopIteration):
    pass
sys.exit(code)
"""


@pytest.mark.large
@pytest.mark.parametrize("token", ("C1", "A2even", "A2evenDagger", "A2odd"))
def test_sigma_characterization_at_rank_10_stays_within_the_partition(token):
    # thm58 reads sigma one component at a time, so its peak is the shared
    # partition's own (57 MiB on a 64-bit CPython); a list of all 4^10 sigma
    # tuples would take it to 100-125 MiB
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_WITH_PEAK, "verify", "--suite", "thm58",
         "--type", token, "--n", "10"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[thm58] PASS ") \
        and lines[0].endswith(" n=10"), proc.stdout
    peak = re.search(r"^VmHWM:\s+(\d+) kB", proc.stderr, re.M)
    if peak is None:
        pytest.skip("no VmHWM in /proc/self/status on this platform")
    assert int(peak.group(1)) < 64 * 1024, proc.stderr


def _fock_check_count(token, n, groups):
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  ROOT / "perfbench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fock_check_count(token, n, groups)


def _fock_every_group(token, n, groups, seconds, mib):
    """``fock verify`` with every group passes with the check count of
    ``groups``, within ``seconds`` and a peak of ``mib``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_WITH_PEAK, "fock", "verify", "--type", token, "--n", str(n)],
        capture_output=True, text=True, env=env, timeout=600)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    total = _fock_check_count(token, n, groups)
    *checks, summary = proc.stdout.splitlines()
    assert len(checks) == total and all(line.startswith("[ok] ") for line in checks)
    assert summary.startswith(f"{total}/{total} checks passed")
    assert elapsed < seconds, elapsed
    peak = re.search(r"^VmHWM:\s+(\d+) kB", proc.stderr, re.M)
    if peak is None:
        pytest.skip("no VmHWM in /proc/self/status on this platform")
    assert int(peak.group(1)) < mib * 1024, proc.stderr


@pytest.mark.large
@pytest.mark.parametrize("token, groups", [
    ("A2odd", ("relations", "polarization", "crystal_match", "highest", "deltaword")),
    ("C1", ("relations", "polarization", "crystal_match", "highest")),
])
def test_fock_every_group_at_rank_8(token, groups):
    _fock_every_group(token, 8, groups, 30, 128)


@pytest.mark.large
@pytest.mark.parametrize("token", ("C1", "A2even", "A2evenDagger", "A2odd"))
def test_fock_every_group_at_rank_13(token):
    # the highest vectors reduce weight spaces generated from the rule
    # tables (2^(n-k) ids each), not filtered from the 4^13 ids
    groups = ("relations", "polarization", "crystal_match", "highest") + \
        ("deltaword",) * (token == "A2odd")
    _fock_every_group(token, 13, groups, 10, 64)
