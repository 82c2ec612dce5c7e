"""Exhaustive ``verify --suite all`` for the matrix labelings at rank 10.

Each run enumerates 4^10 matrices in its own process and takes a minute or
more, so these tests are deselected by default; run them with
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
