"""testlab benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; testlab is imported from ``src/``.
Workloads: mc-long-paths, mc-many-reps, exact-decisions (see README.md in
this directory). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before
it describe the run, its checks and its environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("mc-long-paths", "mc-many-reps", "exact-decisions")
DEFAULT_SEED = 1  # README.md names the held-out seed for confirming claims
SETUP_REPEATS = 9

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ops_per_s_2w", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def make_workload(name: str, workdir: Path, seed: int, scale: float = 1.0):
    if name == "exact-decisions":
        from exact import ExactWorkload

        return ExactWorkload(workdir, seed, scale)
    from mc import McWorkload

    return McWorkload(name, workdir, seed, scale)


def measure_setup(paths, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh interpreters that import testlab and its CLI and
    load the workload's input files; one untimed launch first, so every
    timed one finds the bytecode cache written."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)]
    times = []
    for i in range(repeats + 1):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - started)
    return times


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": [1, 2],
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        setup_repeats: int = SETUP_REPEATS) -> tuple[dict, list]:
    """Run one workload; returns (result document, note lines)."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        bench = make_workload(workload, workdir, seed, scale)
        if trace:
            from spans import PER_LAYER, Tracer, layer_metrics

            result, tracers = bench.trace(Tracer)
            metrics = layer_metrics(tracers, getattr(bench, "evidence_samples", 0))
            metrics["trace.overhead"] = result.metrics["trace.overhead"][0]
            out = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}
        else:
            setup = measure_setup(bench.input_files, setup_repeats)
            result = bench.measure(seconds)
            result.metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
            result.metrics["setup_s"] = (statistics.median(setup), "s")
            result.lines.append(
                "setup_s is the median of " + str(len(setup)) + " fresh interpreters: "
                + ", ".join(f"{t:.4f}" for t in setup))
            out = {name: {"value": result.metrics[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    lines = list(result.lines)
    lines.append(f"failure_ratio = {result.failed}/{result.attempted} = "
                 f"{result.failed / result.attempted:.6g}")
    document = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": out,
    }
    return document, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its inputs and stops its probes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "testlab" / "__init__.py").is_file():
        print(f"error: no testlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(f"# record {json.dumps(run_record(args), sort_keys=True)}")
    document, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(f"# {line}")
    for name, metric in document["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
