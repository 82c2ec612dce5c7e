"""Large-rank runs for the matrix labelings, each in its own process.

``verify --suite all`` at rank 10 enumerates 4^10 matrices and takes 4-18 s
per labeling on a 2-core host; ``fock verify --relations --polarization`` at
rank 7 checks the relations on the 4^7-dimensional square;
``fock verify --crystal-match`` compares the modified root operators at
qs = 0 with the crystal at rank 6 for every labeling and at rank 7 for
A_{2n-1}^(2).  These tests are deselected by default; run them with
``python -m pytest -m large``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
@pytest.mark.parametrize("token, n", [
    *((token, 6) for token in ("C1", "A2even", "A2evenDagger", "A2odd", "B1", "D1", "D2")),
    ("A2odd", 7),
])
def test_fock_crystal_match_at_rank_6_and_7(token, n):
    _fock_verify_passes("--crystal-match", "--type", token, "--n", str(n))
