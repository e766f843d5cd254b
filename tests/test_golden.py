"""Golden-output check of every simulation runner: the paper-suite gate.

Each paper-suite scenario runs at its full size, and inline bayes, map and
finite-alphabet optional-stopping scenarios that the paper suite does not
exercise run at 1 100 replications, two replication chunks. Every scenario
runs twice: at 1 worker, where every chunk runs on the calling thread, and
at 2 workers with ``harness._POOL_WIDTH`` set to 0, where every chunk loop
runs on pool threads however narrow its replications are. A 2-worker run
at the default width takes the serial path for narrow replications and the
pooled path for wide ones, so these two runs cover it. Both must reproduce
the committed CSV in tests/golden/, the wall-clock row left out, and give
the same sha256 of each per-replication result array, which sees the order
the CSV's sums hide.

Run ``PYTHONPATH=src python tests/test_golden.py`` from the repository root to rewrite
the fixtures after an intended change of output.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from testlab import FiniteDistribution, Seed, harness, load_scenario, run_scenario
from testlab.harness import Scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
INLINE_REPS = 1100  # two 1 024-replication chunks

H3 = FiniteDistribution(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
K3 = FiniteDistribution(("a", "b", "c"), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))


def _inline_scenarios():
    out = []
    for paradigm in ("bayes", "map"):
        for truth in ("H", "K"):
            out.append(Scenario(
                name=f"inline-{paradigm}-{truth}",
                paradigm=paradigm,
                truth=truth,
                reps=INLINE_REPS,
                seed=Seed(4242, 7),
                h=H3,
                k=K3,
                params={"n": "12", "prior-h": "0.3"},
            ))
    out.append(Scenario(
        name="inline-optional-stopping-finite",
        paradigm="optional-stopping",
        truth="H",
        reps=INLINE_REPS,
        seed=Seed(4243),
        h=FiniteDistribution(("0", "1"), (Fraction(1, 2), Fraction(1, 2))),
        k=FiniteDistribution(("0", "1"), (Fraction(1, 4), Fraction(3, 4))),
        params={"alpha": "0.05", "looks": "10 20 40", "s": "20"},
    ))
    return out


def scenarios():
    suite = sorted((ROOT / "paper-suite").glob("*.scenario"))
    return [load_scenario(path) for path in suite] + _inline_scenarios()


def csv_body(report):
    return "".join(
        line + "\n" for line in report.to_csv().splitlines() if ",wall_clock_s," not in line
    )


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_simulation_matches_golden_csv(scenario, monkeypatch):
    expected = (GOLDEN / f"{scenario.name}.csv").read_text(encoding="utf-8")
    serial = run_scenario(scenario, workers=1)
    monkeypatch.setattr(harness, "_POOL_WIDTH", 0)
    pooled = run_scenario(scenario, workers=2)
    for label, report in (("workers=1", serial), ("workers=2 pooled", pooled)):
        assert csv_body(report) == expected, label
    assert serial.replication_digests == pooled.replication_digests
    assert len(serial.replication_digests) == (scenario.paradigm != "fisher")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for scenario in scenarios():
        (GOLDEN / f"{scenario.name}.csv").write_text(
            csv_body(run_scenario(scenario, workers=1)), encoding="utf-8"
        )
