"""Set-up target timed from a fresh interpreter: import testlab and its CLI,
then load the workload's input files the way the program does.

    python3 perfbench/setup_probe.py SRC_DIR FILE...

``.scenario`` files go through ``harness.load_scenario``, ``.tsv`` files
through ``files.read_distribution`` and ``.txt`` files through
``files.read_symbols``.
"""

import sys

src, *paths = sys.argv[1:]
sys.path.insert(0, src)

import testlab  # noqa: E402,F401
import testlab.cli  # noqa: E402,F401
from testlab import files, harness  # noqa: E402

for path in paths:
    if path.endswith(".scenario"):
        harness.load_scenario(path)
    elif path.endswith(".tsv"):
        files.read_distribution(path)
    else:
        files.read_symbols(path)
