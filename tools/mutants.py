"""Run the mutation matrix: deliberate one-line changes that tests must catch.

Each row of MUTANTS names a file, an exact text that must occur in it once,
the text that replaces it, and the tests expected to fail on the change.
The script first runs every named test on an unmutated copy of the
repository, where they must pass. Then, for each row, it copies the
repository again, applies the change, runs only that row's tests and prints
"killed" when they fail or "survived" when they pass. From the root of a
source checkout:

    python tools/mutants.py [NAME ...]

Names select rows; none runs them all. The exit status is 0 when every
mutant is killed, 1 when one survives, and 2 when the table or the
unmutated run is broken, or a run ends in anything but a pass or a failure.
A change to a mutated line should re-run its rows.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "paper-suite", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # kl must skip a term on zero mass, never on a float weight that
    # rounds to 0.0: a Fraction(1, 10**400) cell against a zero cell is +inf
    Mutant(
        "kl-skip-on-float-weight",
        "src/testlab/info_geometry.py",
        "        if log_w == -math.inf:  # zero mass, however small a float w may be\n",
        "        if not w:\n",
        ("tests/test_info_geometry.py::"
         "test_kl_of_a_mass_whose_float_underflows_against_a_zero_cell_is_infinite",),
    ),
    # the log of a count is taken from the reduced c/n, as log_probability
    # takes it from a Fraction; log(c) - log(n) differs in the last bit
    Mutant(
        "kl-unreduced-log",
        "src/testlab/info_geometry.py",
        "math.log(c // g) - math.log(n // g)",
        "math.log(c) - math.log(n)",
        ("tests/test_info_geometry.py::test_kl_equals_the_fraction_formula_bit_for_bit",),
    ),
    # q's logs come from its exact masses, not from their floats, which
    # underflow to 0.0 below the double range
    Mutant(
        "kl-log-of-float-q",
        "src/testlab/info_geometry.py",
        "zip(terms, q.log_probs)",
        "zip(terms, map(log_probability, map(float, q.probs)))",
        ("tests/test_info_geometry.py::"
         "test_kl_reads_the_log_of_a_q_mass_whose_float_underflows",),
    ),
    Mutant(
        "log-probability-no-sign-check",
        "src/testlab/dist.py",
        '        raise InputError(f"negative probability {p!r}")\n',
        "        pass\n",
        ("tests/test_dist.py::test_log_probability_rejects_negative_mass",),
    ),
    Mutant(
        "log-ratio-table-h-k-swapped",
        "src/testlab/evidential.py",
        "np.subtract(k.log_probs, h.log_probs)",
        "np.subtract(h.log_probs, k.log_probs)",
        ("tests/test_evidential.py::test_log_ratio_table_cells",),
    ),
    # the boundary r_n = s accepts K
    Mutant(
        "threshold-verdict-strict",
        "src/testlab/evidential.py",
        "        if ev.exact_ratio >= s_exact:\n",
        "        if ev.exact_ratio > s_exact:\n",
        ("tests/test_evidential.py::test_threshold_verdict_boundary_accepts_k_exactly",),
    ),
    # pool threads seed replication i from stream i ^ 1; every CSV row sums
    # over replications and cannot see it, and only a test whose chunks run
    # on pool threads can
    Mutant(
        "replicate-stream-i-xor-1",
        "src/testlab/harness.py",
        "        rngs = seed._rep_rngs(span)\n",
        "        import threading\n"
        "        rngs = seed._rep_rngs(span) if threading.current_thread() is "
        "threading.main_thread() else (seed.rng(i ^ 1) for i in span)\n",
        ("tests/test_harness.py::"
         "test_per_replication_verdicts_do_not_depend_on_the_worker_count[lr-n]",),
    ),
    # replications narrower than _POOL_WIDTH run on the calling thread
    Mutant(
        "pool-width-gate-removed",
        "src/testlab/harness.py",
        "workers if width >= _POOL_WIDTH else 1",
        "workers if width >= 0 else 1",
        ("tests/test_harness.py::"
         "test_only_replications_at_least_pool_width_wide_run_on_pool_threads",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def _run_tests(copy: Path, tests) -> subprocess.CompletedProcess:
    """pytest on the named tests of a copy, importing testlab from the copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(copy / "src"), os.environ.get("PYTHONPATH")))
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", "addopts=", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def _check_table(rows) -> list[str]:
    problems = []
    for m in rows:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            problems.append(f"{m.name}: old text occurs {found} times in {m.path}")
    return problems


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    problems = _check_table(rows)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "unmutated"
        _copy(copy)
        baseline = _run_tests(copy, sorted({t for m in rows for t in m.tests}))
        if baseline.returncode != 0:
            print("the named tests do not pass unmutated:", file=sys.stderr)
            print(baseline.stdout[-3000:], baseline.stderr[-3000:], file=sys.stderr)
            return 2
        verdicts = []
        for m in rows:
            copy = Path(tmp) / m.name
            _copy(copy)
            target = copy / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            t0 = time.perf_counter()
            result = _run_tests(copy, m.tests)
            verdict = {0: "survived", 1: "killed"}.get(result.returncode, "error")
            verdicts.append(verdict)
            print(f"{m.name:<32} {verdict:<8} {time.perf_counter() - t0:5.1f} s", flush=True)
            if verdict == "error":
                print(result.stdout[-3000:], result.stderr[-3000:], file=sys.stderr)
            shutil.rmtree(copy)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(rows)} killed in {time.perf_counter() - started:.1f} s")
    if "error" in verdicts:
        return 2
    return 0 if killed == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
