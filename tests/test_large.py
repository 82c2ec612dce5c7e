"""Large-rank runs for the matrix labelings, each in its own process.

``verify --suite all`` at rank 10 enumerates 4^10 matrices and takes a
minute or more; ``fock verify --relations --polarization`` at rank 7 checks
the relations on the 4^7-dimensional square.  These tests are deselected by
default; run them with ``python -m pytest -m large``.
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


@pytest.mark.large
@pytest.mark.parametrize("token", ("C1", "A2even", "A2evenDagger", "A2odd"))
def test_fock_relations_at_rank_7(token):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "wedge_crystal", "fock", "verify", "--relations",
         "--polarization", "--type", token, "--n", "7"],
        capture_output=True, text=True, env=env, timeout=1800)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *checks, summary = proc.stdout.splitlines()
    assert checks and all(line.startswith("[ok] ") for line in checks)
    assert summary.startswith(f"{len(checks)}/{len(checks)} checks passed")
