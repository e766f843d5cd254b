"""Check that every paper-suite scenario runs the same at 1 and 2 workers.

Each scenario runs in-process three times: at 1 worker, at 2 workers, and
at 2 workers with ``harness._POOL_WIDTH`` forced to 0, so that its chunks
run on pool threads however narrow its replications are. Where the gate
already gave every chunk loop of the 2-worker run both workers, as for c04's
10 000-step paths, that run stands for the third. For each run the
script prints one sha256, over the simulate CSV without its wall-clock row
and the sha256 of each per-replication result array the run filled
(``SimulationReport.replication_digests``), which also sees the order of
replications. It exits 1 when a scenario's three digests differ. From the
root of a source checkout:

    PYTHONPATH=src python tools/suite_digest.py [SUITE_DIR]

SUITE_DIR defaults to the repository's paper-suite/.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from testlab import harness

LABELS = ("workers=1", "workers=2", "workers=2 pooled")


def digest(report) -> str:
    csv = "".join(
        line
        for line in report.to_csv().splitlines(keepends=True)
        if ",wall_clock_s," not in line
    )
    h = hashlib.sha256(csv.encode())
    for array_digest in report.replication_digests:
        h.update(array_digest.encode())
    return h.hexdigest()


def run_digest(scenario, workers, pool_width):
    """The digest of one run with harness._POOL_WIDTH set to pool_width, and
    the worker count each of the run's chunk loops was given."""
    given = []
    loop, gate = harness._for_each_rep, harness._POOL_WIDTH

    def recording(reps, loop_workers, body):
        given.append(loop_workers)
        return loop(reps, loop_workers, body)

    harness._for_each_rep, harness._POOL_WIDTH = recording, pool_width
    try:
        return digest(harness.run(scenario, workers=workers)), given
    finally:
        harness._for_each_rep, harness._POOL_WIDTH = loop, gate


def main(argv: list[str]) -> int:
    suite = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "paper-suite"
    differing = []
    for path in sorted(suite.glob("*.scenario")):
        scenario = harness.load_scenario(path)
        serial, _ = run_digest(scenario, 1, harness._POOL_WIDTH)
        threaded, given = run_digest(scenario, 2, harness._POOL_WIDTH)
        # when the gate gave every chunk loop 2 workers, that run is the pooled one
        pooled = threaded if all(w == 2 for w in given) else run_digest(scenario, 2, 0)[0]
        digests = (serial, threaded, pooled)
        for label, value in zip(LABELS, digests):
            print(f"{value}  {path.name}  {label}")
        if len(set(digests)) > 1:
            differing.append(path.name)
    for name in differing:
        print(f"{name}: differs between {', '.join(LABELS)}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
