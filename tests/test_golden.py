"""Golden-output check of every simulation runner.

Each paper-suite scenario, with its replications capped so that it spans
two replication chunks, plus inline bayes, map and finite-alphabet
optional-stopping scenarios that the paper suite does not exercise, must
reproduce the committed CSV in tests/golden/ at 1 and 2 workers. The
wall-clock row is the one row left out. The sha256 of each per-replication
result array, which sees the order the CSV's sums hide, must also be the
same at both worker counts.

Run ``PYTHONPATH=src python tests/test_golden.py`` from the repository root to rewrite
the fixtures after an intended change of output.
"""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from testlab import FiniteDistribution, Seed, load_scenario, run_scenario
from testlab.harness import Scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
REPS_CAP = 1100  # two 1 024-replication chunks

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
                reps=REPS_CAP,
                seed=Seed(4242, 7),
                h=H3,
                k=K3,
                params={"n": "12", "prior-h": "0.3"},
            ))
    out.append(Scenario(
        name="inline-optional-stopping-finite",
        paradigm="optional-stopping",
        truth="H",
        reps=REPS_CAP,
        seed=Seed(4243),
        h=FiniteDistribution(("0", "1"), (Fraction(1, 2), Fraction(1, 2))),
        k=FiniteDistribution(("0", "1"), (Fraction(1, 4), Fraction(3, 4))),
        params={"alpha": "0.05", "looks": "10 20 40", "s": "20"},
    ))
    return out


def scenarios():
    out = []
    for path in sorted((ROOT / "paper-suite").glob("*.scenario")):
        scenario = load_scenario(path)
        out.append(dataclasses.replace(scenario, reps=min(scenario.reps, REPS_CAP)))
    return out + _inline_scenarios()


def csv_body(report):
    return "".join(
        line + "\n" for line in report.to_csv().splitlines() if ",wall_clock_s," not in line
    )


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_simulation_matches_golden_csv(scenario):
    expected = (GOLDEN / f"{scenario.name}.csv").read_text(encoding="utf-8")
    serial, threaded = (run_scenario(scenario, workers=w) for w in (1, 2))
    for workers, report in ((1, serial), (2, threaded)):
        assert csv_body(report) == expected, f"workers={workers}"
    assert serial.replication_digests == threaded.replication_digests
    assert len(serial.replication_digests) == (scenario.paradigm != "fisher")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for scenario in scenarios():
        (GOLDEN / f"{scenario.name}.csv").write_text(
            csv_body(run_scenario(scenario, workers=1)), encoding="utf-8"
        )
