"""Start-up cost: the modules a CLI call loads.

The package once pulled in ``dataclasses`` (which loads ``inspect``, ``ast``,
``dis`` and ``tokenize``) and ``fractions`` (``decimal`` and ``numbers``) on
every call, a few milliseconds each before any command ran.  This test checks
module names in a fresh interpreter, not timings.
"""

import os
import subprocess
import sys

import wedge_crystal

SLOW = ("dataclasses", "inspect", "fractions", "decimal", "typing")

# run without the site module (-S): site-packages hooks on some hosts load
# typing before any user code, which says nothing about this package
CHILD = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
from wedge_crystal import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
print(codes, sorted(name for name in {slow!r} if name in sys.modules))
"""

ARGVS = [
    ["verify", "--suite", "all", "--type", "A2odd", "--n", "3"],
    ["decompose", "--type", "C1", "--n", "3"],
    ["graph", "--type", "A2odd", "--n", "3", "--k", "1", "--l", "2", "--quotient"],
]


def test_commands_load_no_dataclasses_fractions_or_typing():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wedge_crystal.__file__)))
    code = CHILD.format(src=src, argvs=ARGVS, slow=SLOW)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[0, 0, 0] []\n"
