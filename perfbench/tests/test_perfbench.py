"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests

Every workload, untraced and traced, must emit exactly the metrics that
BENCHMARK.json names, with their units, and pass its own output checks;
a traced pass must reproduce the untraced outputs (a difference counts as
a failed operation) and leave testlab as it found it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    "end_to_end": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
    "per_layer": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
}


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert UNITS["end_to_end"] == dict(run.END_TO_END)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    document, lines = run.run(workload, seed=7, seconds=0, trace=trace, scale=0.01,
                              setup_repeats=1)
    expected = UNITS["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in document["metrics"].items()} == expected
    assert document["correct"], "\n".join(lines)
    assert document["failed"] == 0 and document["attempted"] >= 1
    for metric in document["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(document["metrics"][name]["value"] > 0 for name in expected)


def test_tracer_restores_every_entry_point():
    from testlab import dist, evidential, harness, info_geometry

    before = (harness._finite_indices, evidential.update, dist.Seed.rng,
              info_geometry.empirical, harness._for_each_rep)
    tracer = Tracer()
    tracer.install()
    try:
        assert harness._finite_indices is not before[0]
        assert evidential.update is not before[1]
    finally:
        tracer.uninstall()
    after = (harness._finite_indices, evidential.update, dist.Seed.rng,
             info_geometry.empirical, harness._for_each_rep)
    assert after == before


def test_self_time_subtracts_parallel_children_once():
    tracer = Tracer()
    parent = tracer.name_id("p")
    child = tracer.name_id("c")
    st = tracer._state()
    # parent 0..100 with two children overlapping on 10..60 and 40..90
    st.buf.add(1, parent, 0, 100, 0, 1)
    st.buf.add(2, child, 10, 60, 1, 1)
    st.buf.add(3, child, 40, 90, 1, 1)
    summary = tracer.summary()
    assert summary["p"]["self_s"] == pytest.approx(20e-9)
    assert summary["c"]["calls"] == 2
    assert summary["c"]["self_s"] == pytest.approx(100e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "exact-decisions",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
