"""Check that every paper-suite scenario runs the same at 1 and 2 workers.

Each scenario runs in-process at both worker counts. For each run the
script prints one sha256, over the simulate CSV without its wall-clock row
and the sha256 of each per-replication result array the run filled
(``SimulationReport.replication_digests``), which also sees the order of
replications. It exits 1 when a scenario's two digests differ. From the
root of a source checkout:

    PYTHONPATH=src python tools/suite_digest.py [SUITE_DIR]

SUITE_DIR defaults to the repository's paper-suite/.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from testlab import harness

WORKERS = (1, 2)


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


def main(argv: list[str]) -> int:
    suite = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "paper-suite"
    differing = []
    for path in sorted(suite.glob("*.scenario")):
        scenario = harness.load_scenario(path)
        digests = [digest(harness.run(scenario, workers=w)) for w in WORKERS]
        for workers, value in zip(WORKERS, digests):
            print(f"{value}  {path.name}  workers={workers}")
        if len(set(digests)) > 1:
            differing.append(path.name)
    for name in differing:
        print(f"{name}: differs between workers {WORKERS}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
