"""Golden transcript of the exact subcommands: the bytes each one prints.

Each row of tests/golden/cli/commands.txt names a fixture and gives a
testlab command line. The test writes the data files in FILES into an empty
directory, runs each command there through ``cli.main``, and compares its
exit code, stdout and stderr with tests/golden/cli/<name>.txt byte for
byte. The rows cover fisher, lr, bayes, np, power, kl, map and hoeffding in
text and csv, the printing edges of the exact layer (an underflowing tail's
log10_p row, a 60 000-digit tail, infinite and zero ratios and posteriors,
zero cells both ways) and an input error for each subcommand.

Run ``PYTHONPATH=src python tests/test_cli_transcript.py`` from the repository
root to rewrite the fixtures after an intended change of output.
"""

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from testlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

FILES = {
    "h.tsv": "a\t1/2\nb\t1/2\n",
    "k.tsv": "a\t1/4\nb\t3/4\n",
    "data.txt": "a\na\nb\n",
    "three.tsv": "a\t1/2\nb\t1/4\nc\t1/4\n",
    "signed.tsv": "".join(f"{x}\t1/5\n" for x in range(-2, 3)),
    "ordered.tsv": "x1\t1/100\nx2\t1/50\nx3\t57/100\nx4\t2/5\n",
    # ln r_n = 2000 ln(9/5) ~ 1176: the float ratio overflows to inf
    "k-tenth.tsv": "a\t1/10\nb\t9/10\n",
    "b-2000.txt": "b\n" * 2000,
    # ln r_n = 200 ln(1/99) ~ -919: the posterior of K is 0
    "h-sure.tsv": "a\t99/100\nb\t1/100\n",
    "k-sure.tsv": "a\t1/100\nb\t99/100\n",
    "a-200.txt": "a\n" * 200,
    # 600 counts: the exact ratio is built in lowest terms
    "long.txt": "a\nb\nb\n" * 200,
    "unknown.txt": "a\nz\n",
    # each puts zero mass where the other has some
    "p-zero.tsv": "a\t1/2\nb\t1/2\nc\t0\n",
    "q-zero.tsv": "a\t1/2\nb\t0\nc\t1/2\n",
}


def _commands():
    """Fixture name -> argv, in the order of golden/cli/commands.txt."""
    rows = (GOLDEN / "commands.txt").read_text(encoding="utf-8").splitlines()
    split = (shlex.split(row) for row in rows if row.strip() and not row.startswith("#"))
    return {name: argv for name, *argv in split}


COMMANDS = _commands()


def transcript(argv, workdir):
    """Exit code, stdout and stderr of ``testlab *argv`` run in workdir."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def write_files(workdir):
    for name, text in FILES.items():
        (Path(workdir) / name).write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("transcript")
    write_files(path)
    return path


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_matches_golden_transcript(workdir, name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(COMMANDS[name], workdir) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_files(scratch)
        for name, argv in COMMANDS.items():
            (GOLDEN / f"{name}.txt").write_text(transcript(argv, scratch), encoding="utf-8")
