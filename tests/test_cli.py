import contextlib
import csv
import decimal
import io
import math
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import testlab.cli as cli
from testlab import (
    harness,
    Divergence,
    EmpiricalDistribution,
    FiniteDistribution,
    Gaussian,
    GaussianPair,
    LogEvidence,
    PowerSpec,
    PValueReport,
    Seed,
    TailDirection,
    UniversalTestConfig,
    adjust_alpha,
    binomial_tail,
    empirical,
    errors,
    evidence_rate,
    family_wise_error,
    gaussian_quantile,
    grade,
    lr_threshold_as_kl_margin,
    midpoint_rule,
    np_test,
    optional_stopping_alpha,
    p_value,
    robbins_violation_probability,
    run_scenario,
    significance_verdict,
    threshold_verdict,
)
from testlab.cli import main
from testlab.dist import as_probability, parse_probability, sample
from testlab.files import read_distribution, read_symbols
from testlab.info_geometry import types_bound_radius

PAPER_SUITE = Path(__file__).resolve().parents[1] / "paper-suite"


@pytest.fixture()
def dist_files(tmp_path):
    h = tmp_path / "h.tsv"
    k = tmp_path / "k.tsv"
    data = tmp_path / "data.txt"
    h.write_text("a\t1/2\nb\t1/2\n")
    k.write_text("a\t1/4\nb\t3/4\n")
    data.write_text("a\na\nb\n")
    return h, k, data


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_row(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    return dict(zip(rows[0], rows[1]))


# --- fisher -----------------------------------------------------------------


def test_fisher_prints_exact_fraction_and_float(capsys):
    rc, out, _ = run_cli(capsys, "fisher", "--n", "82", "--k", "80", "--theta", "1/2")
    assert rc == 0
    assert "851/1208925819614629174706176" in out  # 3404/2**82 reduced
    assert "7.039307e-22" in out


@pytest.mark.parametrize("n, k, theta", [(1100, 1100, "1/2"), (700, 0, "2/3"), (1200, 1190, "1/4")])
def test_fisher_reports_log10_p_when_the_float_underflows(capsys, n, k, theta):
    direction = "le" if k == 0 else "ge"
    argv = ["fisher", "--n", str(n), "--k", str(k), "--theta", theta, "--direction", direction]
    rc, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert rc == 0
    row = csv_row(out)
    assert float(row["p_float"]) == 0.0
    p = Fraction(row["p_exact"])
    want = mpmath.log10(mpmath.mpf(p.numerator)) - mpmath.log10(mpmath.mpf(p.denominator))
    assert abs(float(row["log10_p"]) - float(want)) <= 1e-11 * abs(float(want))  # 12 digits
    rc, out, _ = run_cli(capsys, *argv)
    assert f"log10 p-value     = {float(want):.6f}" in out


def test_fisher_omits_log10_p_in_double_range(capsys):
    rc, out, _ = run_cli(capsys, "fisher", "--n", "82", "--k", "80", "--format", "csv")
    assert rc == 0
    assert "log10_p" not in csv_row(out)


def test_fisher_accepts_decimal_theta(capsys):
    rc, out, _ = run_cli(
        capsys, "fisher", "--n", "4", "--k", "4", "--theta", "0.5", "--format", "csv"
    )
    assert rc == 0
    row = csv_row(out)
    assert row["p_exact"] == "1/16"
    assert row["significant"] == "no"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_fisher_renders_each_exact_fraction_once(capsys, monkeypatch, fmt):
    # output alone cannot show a second rendering; the count of calls can
    from testlab import cli as cli_mod

    rendered = []

    def counting(value):
        if isinstance(value, Fraction):
            rendered.append(value)
        return _render(value)

    _render = cli_mod._render
    monkeypatch.setattr(cli_mod, "_render", counting)
    rc, out, _ = run_cli(capsys, "fisher", "--n", "82", "--k", "80", "--format", fmt)
    assert rc == 0
    tail = binomial_tail(82, 80, Fraction(1, 2))
    assert sorted(rendered) == sorted([tail.p, tail.point_prob])


def test_fisher_distribution_file_mode(capsys, tmp_path):
    dist = tmp_path / "d.tsv"
    dist.write_text("x1\t1/100\nx2\t1/50\nx3\t57/100\nx4\t2/5\n")
    rc, out, _ = run_cli(
        capsys,
        "fisher", "--dist", str(dist), "--observed", "x2", "--direction", "le",
        "--format", "csv",
    )
    assert rc == 0
    assert csv_row(out)["p_exact"] == "3/100"


def test_fisher_two_sided_tail_reads_signed_labels_from_a_file(capsys, tmp_path):
    dist = tmp_path / "d.tsv"
    dist.write_text("".join(f"{x}\t1/5\n" for x in range(-2, 3)))
    rc, out, err = run_cli(
        capsys,
        "fisher", "--dist", str(dist), "--observed=-2", "--direction", "abs",
        "--format", "csv",
    )
    assert rc == 0, err
    row = csv_row(out)
    assert (row["p_exact"], row["n_extreme"]) == ("2/5", "2")


# --- evidence commands ---------------------------------------------------------


def test_lr_text_output(capsys, dist_files):
    h, k, data = dist_files
    rc, out, _ = run_cli(
        capsys, "lr", "--h-dist", str(h), "--k-dist", str(k), "--data", str(data)
    )
    assert rc == 0
    assert "r_n      = 0.375" in out
    assert "continue" in out


def test_lr_one_sided_sample_overflows_to_infinite_ratio(capsys, tmp_path):
    # ln r_n = 2000 ln(9/5) ~ 1176 lies beyond the largest finite double
    h = tmp_path / "h.tsv"
    k = tmp_path / "k.tsv"
    data = tmp_path / "data.txt"
    h.write_text("a\t1/2\nb\t1/2\n")
    k.write_text("a\t1/10\nb\t9/10\n")
    data.write_text("b\n" * 2000)
    rc, out, err = run_cli(
        capsys, "lr", "--h-dist", str(h), "--k-dist", str(k), "--data", str(data)
    )
    assert rc == 0, err
    assert "r_n      = inf" in out
    assert "grade    = decisive evidence for K" in out
    assert "accept_k" in out

    rc, out, err = run_cli(
        capsys, "bayes", "--h-dist", str(h), "--k-dist", str(k), "--data", str(data),
        "--format", "csv",
    )
    assert rc == 0, err
    row = csv_row(out)
    assert row["lr"] == "inf"
    assert row["posterior_odds_k"] == "inf"
    assert row["posterior_k"] == "1"


def test_bayes_on_decisive_evidence_for_h_prints_posterior_zero(capsys, tmp_path):
    # ln r_n = 200 ln(1/99) ~ -919, where exp of the negated log odds overflows
    h = tmp_path / "h.tsv"
    k = tmp_path / "k.tsv"
    data = tmp_path / "data.txt"
    h.write_text("a\t99/100\nb\t1/100\n")
    k.write_text("a\t1/100\nb\t99/100\n")
    data.write_text("a\n" * 200)
    rc, out, err = run_cli(
        capsys, "bayes", "--h-dist", str(h), "--k-dist", str(k), "--data", str(data),
        "--format", "csv",
    )
    assert rc == 0, err
    row = csv_row(out)
    assert row["grade"] == "decisive evidence for H"
    assert (row["posterior_odds_k"], row["posterior_k"]) == ("0", "0")


def test_bayes_csv_output(capsys, dist_files):
    h, k, data = dist_files
    rc, out, _ = run_cli(
        capsys,
        "bayes", "--h-dist", str(h), "--k-dist", str(k), "--data", str(data),
        "--prior-h", "0.5", "--format", "csv",
    )
    assert rc == 0
    row = csv_row(out)
    assert float(row["posterior_odds_k"]) == pytest.approx(0.375)
    assert float(row["posterior_k"]) == pytest.approx(0.375 / 1.375)


def test_map_command(capsys, dist_files):
    h, k, data = dist_files
    rc, out, _ = run_cli(
        capsys, "map", "--h-dist", str(h), "--k-dist", str(k), str(data),
        "--format", "csv",
    )
    assert rc == 0
    assert csv_row(out)["decision"] == "H"


def test_hoeffding_command(capsys, dist_files):
    h, _, data = dist_files
    rc, out, _ = run_cli(
        capsys, "hoeffding", "--hypothesis", str(h), "--delta", "0.05", str(data),
        "--format", "csv",
    )
    assert rc == 0
    assert csv_row(out)["decision"] == "accept_h"


def test_kl_both_directions(capsys, dist_files):
    h, k, _ = dist_files
    rc, out, _ = run_cli(capsys, "kl", str(h), str(k), "--format", "csv")
    assert rc == 0
    row = csv_row(out)
    assert float(row["kl_pq_nats"]) == pytest.approx(0.143841, abs=1e-5)
    assert float(row["kl_qp_nats"]) == pytest.approx(0.130812, abs=1e-5)


# --- design commands -------------------------------------------------------------


def test_np_midpoint_when_alpha_omitted(capsys):
    rc, out, _ = run_cli(
        capsys, "np", "--mu-h", "0", "--mu-k", "1", "--n", "16", "--format", "csv"
    )
    assert rc == 0
    row = csv_row(out)
    assert row["rule"] == "midpoint"
    assert float(row["alpha"]) == pytest.approx(0.0227501, abs=1e-6)


@pytest.mark.parametrize("command", ["np", "simulate"])
@pytest.mark.parametrize(
    "mu_h, mu_k, sigma",
    [
        ("0", "nan", "1"),
        ("nan", "1", "1"),
        ("0", "inf", "1"),
        ("-inf", "0", "1"),
        ("0", "1", "inf"),
        ("0", "1", "nan"),
    ],
)
def test_non_finite_gaussian_parameters_exit_1(capsys, tmp_path, command, mu_h, mu_k, sigma):
    if command == "np":
        argv = ["np", f"--mu-h={mu_h}", f"--mu-k={mu_k}", f"--sigma={sigma}", "--n", "4"]
    else:
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            "[scenario]\nname = edge\nparadigm = np\nreps = 5\n\n"
            f"[gaussian]\nmu-h = {mu_h}\nmu-k = {mu_k}\nsigma = {sigma}\n\n"
            "[params]\nn = 4\nalpha = 0.05\n"
        )
        argv = ["simulate", "--scenario", str(scenario)]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert "finite, got" in err


def test_power_solves_n(capsys):
    rc, out, _ = run_cli(
        capsys,
        "power", "--alpha", "0.05", "--beta", "0.2", "--eta", "0.5", "--format", "csv",
    )
    assert rc == 0
    row = csv_row(out)
    assert row["solved_for"] == "n"
    assert row["n"] == "25"


@pytest.mark.parametrize("eta", ["nan", "1e-300", "5e-324"])
def test_power_at_the_edges_of_eta_exits_1(capsys, eta):
    rc, out, err = run_cli(capsys, "power", "--alpha", "0.05", "--beta", "0.2", f"--eta={eta}")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "nan", "1e-5000"])
@pytest.mark.parametrize("where", ["kl", "scenario", "bayes", "fisher"])
def test_non_finite_or_out_of_range_probability_text_exits_1(capsys, tmp_path, dist_files, where, text):
    h, k, data = dist_files
    if where == "kl":
        odd = tmp_path / "odd.tsv"
        odd.write_text(f"a\t{text}\nb\t1/2\n")
        argv = ["kl", str(odd), str(k)]
    elif where == "scenario":
        scenario = tmp_path / "s.scenario"
        scenario.write_text(
            "[scenario]\nname = edge\nparadigm = lr\nreps = 5\n\n"
            f"[hypothesis-h]\na = {text}\nb = 1/2\n\n"
            "[hypothesis-k]\na = 3/4\nb = 1/4\n\n[params]\ns = 8\nhorizon = 5\n"
        )
        argv = ["simulate", "--scenario", str(scenario)]
    elif where == "bayes":
        argv = ["bayes", "--h-dist", str(h), "--k-dist", str(k), "--data", str(data),
                f"--prior-h={text}"]
    else:
        argv = ["fisher", "--n", "10", "--k", "3", f"--theta={text}"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert "cannot parse probability" in err


# --- simulate --------------------------------------------------------------------


def test_simulate_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    rc, _, _ = run_cli(
        capsys,
        "simulate",
        "--scenario", str(PAPER_SUITE / "c01-exact-tail-80.scenario"),
        "--out", str(out_file),
    )
    assert rc == 0
    text = out_file.read_text()
    assert text.startswith("scenario,section,key,value,se\n")
    assert "851/1208925819614629174706176" in text


def test_simulate_worker_flag_never_changes_numbers(capsys, tmp_path):
    scenario = PAPER_SUITE / "c09-midpoint-n1-null.scenario"
    outputs = []
    for workers in ("1", "3"):
        out_file = tmp_path / f"w{workers}.csv"
        rc, _, _ = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario), "--reps", "500",
            "--workers", workers, "--out", str(out_file),
        )
        assert rc == 0
        outputs.append(
            [l for l in out_file.read_text().splitlines() if "wall_clock" not in l]
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_workers_below_one(capsys, workers):
    rc, out, err = run_cli(
        capsys,
        "simulate", "--scenario", str(PAPER_SUITE / "c01-exact-tail-80.scenario"),
        "--workers", workers,
    )
    assert rc == 1
    assert f"workers must be at least 1, got {workers}" in err
    assert out == ""


def test_simulate_reps_and_seed_overrides(capsys, tmp_path):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        "[scenario]\n"
        "name = tiny\nparadigm = lr\ntruth = H\nreps = 50\nseed-root = 7\n\n"
        "[hypothesis-h]\na = 1/2\nb = 1/2\n\n"
        "[hypothesis-k]\na = 3/4\nb = 1/4\n\n"
        "[params]\ns = 4\nhorizon = 30\n"
    )
    rc, out, _ = run_cli(
        capsys, "simulate", "--scenario", str(scenario), "--reps", "20", "--seed", "99"
    )
    assert rc == 0
    assert ",meta,reps,20," in out
    assert ",meta,seed_root,99," in out


@pytest.mark.parametrize(
    "paradigm, params, key",
    [
        ("lr", {"s": "8", "horizon": "0"}, "horizon"),
        ("lr", {"s": "8", "horizon": "-3"}, "horizon"),
        ("lr", {"s": "8", "n": "0"}, "n"),
        ("bayes", {"n": "-1"}, "n"),
        ("map", {"n": "-1"}, "n"),
        ("lr", {"s": "0", "horizon": "5"}, "s"),
        ("lr", {"s": "-2", "horizon": "5"}, "s"),
        ("lr", {"s": "nan", "horizon": "5"}, "s"),
        ("lr", {"s": "inf", "horizon": "5"}, "s"),
        ("lr", {"s": "8", "n": "10", "checkpoints": "x"}, "checkpoints"),
        ("optional-stopping", {"alpha": "0", "looks": "5 10"}, "alpha"),
        ("optional-stopping", {"alpha": "0.05", "s": "0", "looks": "5 10"}, "s"),
        ("optional-stopping", {"alpha": "0.05", "looks": "5 x"}, "looks"),
        ("optional-stopping", {"looks": "5 10", "lr-eta": "nan"}, "lr-eta"),
        ("optional-stopping", {"looks": "5 10", "lr-eta": "inf"}, "lr-eta"),
        ("lr", {"s": "8", "n": "10", "checkpoints": "3 3 2"}, "checkpoints"),
        ("lr", {"s": "8", "n": "10", "checkpoints": ""}, "checkpoints"),
        ("lr", {"s": "8", "n": "10", "checkpoints": "0 5"}, "checkpoints"),
        ("lr", {"s": "8", "n": "10", "checkpoints": "5 11"}, "checkpoints"),
        ("optional-stopping", {"alpha": "0.05", "looks": "10 5"}, "looks"),
        ("optional-stopping", {"alpha": "0.05", "looks": ""}, "looks"),
    ],
)
def test_simulate_rejects_out_of_range_params(capsys, tmp_path, paradigm, params, key):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        f"[scenario]\nname = edge\nparadigm = {paradigm}\nreps = 5\n\n"
        "[hypothesis-h]\na = 1/2\nb = 1/2\n\n"
        "[hypothesis-k]\na = 3/4\nb = 1/4\n\n"
        "[gaussian]\nmu-h = 0\nmu-k = 0\nsigma = 1\n\n"
        "[params]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    )
    rc, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert rc == 1
    assert "scenario edge" in err
    assert repr(key) in err


@pytest.mark.parametrize("reps, n", [(10**15, 4), (1, 10**15)])
def test_simulate_too_large_for_memory_exits_1(capsys, tmp_path, reps, n):
    # both sizes lie past a 47-bit address space: the allocation is refused
    # at once, and nothing is allocated
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        f"[scenario]\nname = huge\nparadigm = np\nreps = {reps}\n\n"
        "[gaussian]\nmu-h = 0\nmu-k = 0.5\nsigma = 1\n\n"
        f"[params]\nn = {n}\n"
    )
    rc, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert rc == 1
    assert out == ""
    assert "scenario huge: its reps or sizes need more memory than is available" in err


# --- exit codes -------------------------------------------------------------------


def test_input_error_exits_1(capsys):
    rc, _, err = run_cli(capsys, "power", "--alpha", "0.05")
    assert rc == 1
    assert "error" in err


def _write(path, text):
    path.write_text(text)
    return path


def test_data_files_skip_blank_and_comment_lines_in_either_line_ending(tmp_path):
    # a line is stripped before it is read, so indented and CRLF lines are
    # read as their text, and an indented # starts a comment
    data = "a\r\n\r\n# note\r\n   # indented\r\n  b  \r\n \t \n\tc\n#\n\nd"
    assert read_symbols(_write(tmp_path / "data.txt", data)) == ["a", "b", "c", "d"]
    dist = "# h\r\n\r\n a\t1/4 \r\n  # b\t1/2\r\nb\t3/4\r\n"
    got = read_distribution(_write(tmp_path / "h.tsv", dist))
    assert got == FiniteDistribution(("a", "b"), ("1/4", "3/4"))


def _command(*argv):
    args = cli._shared_parser().parse_args(list(argv))
    return args.func(args)


_H = FiniteDistribution(("a", "b"), ("1/2", "1/2"))
_K = FiniteDistribution(("a", "b"), ("3/4", "1/4"))
# each input error no other test reaches: a call given a scratch file path, and
# the whole message it raises, {path} standing for that path
_INPUT_ERRORS = {
    "parse-probability": (lambda path: parse_probability("x"), "cannot parse probability 'x'"),
    "boolean-probability": (lambda path: as_probability(True), "booleans are not probabilities"),
    "list-probability": (lambda path: as_probability([1]),
                         "cannot interpret [1] as a probability"),
    "empty-alphabet": (lambda path: FiniteDistribution((), ()), "alphabet must not be empty"),
    "probability-count": (lambda path: FiniteDistribution(("a",), ("1/2", "1/2")),
                          "1 symbols but 2 probabilities"),
    "unhashable-label": (lambda path: FiniteDistribution(([1], [2]), ("1/2", "1/2")),
                         "alphabet labels must be hashable"),
    "infinite-probability": (lambda path: FiniteDistribution(("a", "b"), (math.inf, 0.5)),
                             "non-finite probability inf"),
    "count-per-symbol": (lambda path: EmpiricalDistribution(("a", "b"), (1,), 1),
                         "one count per alphabet symbol required"),
    "negative-count": (lambda path: EmpiricalDistribution(("a",), (-1,), -1),
                       "counts must be nonnegative"),
    "count-unknown-symbol": (lambda path: empirical(["a"], ["a"]).count("z"),
                             "symbol 'z' not in alphabet"),
    "empirical-repeated-label": (lambda path: empirical(["a"], ["a", "a"]),
                                 "alphabet labels must be unique"),
    "empirical-unhashable-label": (lambda path: empirical([], [["a"]]),
                                   "alphabet labels must be hashable"),
    "counts-repeated-label": (lambda path: EmpiricalDistribution(("a", "a"), (0, 1), 1),
                              "alphabet labels must be unique"),
    "counts-unhashable-label": (lambda path: EmpiricalDistribution(([1],), (1,), 1),
                                "alphabet labels must be hashable"),
    "sample-a-number": (lambda path: sample(Fraction(1, 2), 3, Seed(0)),
                        "cannot sample from Fraction"),
    "sample-size-half": (lambda path: sample(_H, 2.5, Seed(0)),
                         "sample size must be an integer, got 2.5"),
    "seed-root-half": (lambda path: Seed(2.5), "seed root must be an integer, got 2.5"),
    "seed-root-string": (lambda path: Seed("5"), "seed root must be an integer, got '5'"),
    "binomial-tail-n-half": (lambda path: binomial_tail(2.5, 1, "1/2"),
                             "n must be an integer, got 2.5"),
    "distribution-line-without-tab": (
        lambda path: read_distribution(_write(path, "a 1/2\n")),
        "{path}: expected 'symbol<TAB>probability', got 'a 1/2'",
    ),
    "empty-distribution-file": (lambda path: read_distribution(_write(path, "# none\n")),
                                "{path}: distribution file is empty"),
    "negative-divergence": (lambda path: Divergence(-1.0),
                            "divergence must be nonnegative, got -1.0"),
    "infinite-margin-threshold": (lambda path: lr_threshold_as_kl_margin(_H, _K, ["a"], math.inf),
                                  "threshold must be finite, got inf"),
    "radius-one-symbol": (lambda path: types_bound_radius(1, 10, 0.05),
                          "radius needs an alphabet of at least two symbols"),
    "radius-n-zero": (lambda path: types_bound_radius(2, 0, 0.05), "n must be at least 1, got 0"),
    "radius-n-half": (lambda path: types_bound_radius(2, 2.5, 0.05),
                      "n must be an integer, got 2.5"),
    "radius-delta-one": (lambda path: types_bound_radius(2, 10, 1.0),
                         "delta must be in (0, 1), got 1.0"),
    "np-test-n-zero": (lambda path: np_test(GaussianPair(0, 1, 1), 0, 0.05),
                       "n must be at least 1, got 0"),
    "np-test-n-half": (lambda path: np_test(GaussianPair(0, 1, 1), 2.5, 0.05),
                       "n must be an integer, got 2.5"),
    "midpoint-n-half": (lambda path: midpoint_rule(GaussianPair(0, 1), 2.5),
                        "n must be an integer, got 2.5"),
    "adjust-alpha-tests-half": (lambda path: adjust_alpha(0.05, 2.5),
                                "number of tests must be an integer, got 2.5"),
    "run-workers-half": (lambda path: run_scenario(harness.Scenario("s", "fisher"), 2.5),
                         "workers must be an integer, got 2.5"),
    "run-workers-string": (lambda path: run_scenario(harness.Scenario("s", "fisher"), "2"),
                           "workers must be an integer, got '2'"),
    "inconsistent-report": (
        lambda path: PValueReport(Fraction(1, 2), TailDirection.GREATER_EQUAL, Fraction(3, 4), 1),
        "inconsistent report: point=Fraction(3, 4) p=Fraction(1, 2)",
    ),
    "p-value-direction-string": (lambda path: p_value(_H, "a", "ge"), "unknown direction 'ge'"),
    "robbins-threshold-one": (
        lambda path: robbins_violation_probability(_H, _K, 1.0, 10, 5, Seed(0)),
        "threshold must exceed 1, got 1.0",
    ),
    "evidence-rate-n-zero": (lambda path: evidence_rate(_H, _K, 0, 5, Seed(0)),
                             "n and reps must be at least 1"),
    "family-wise-m-zero": (lambda path: family_wise_error(0, 0.05, "bonferroni", 5, Seed(0)),
                           "m and reps must be at least 1"),
    "family-wise-m-half": (lambda path: family_wise_error(2.5, 0.05, "bonferroni", 5, Seed(0)),
                           "m must be an integer, got 2.5"),
    "family-wise-reps-half": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 2.5, Seed(0)),
        "reps must be an integer, got 2.5",
    ),
    "family-wise-n-half": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), n=2.5),
        "n must be an integer, got 2.5",
    ),
    "family-wise-n-negative": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), n=-1),
        "n must be at least 1, got -1",
    ),
    "family-wise-sigma-zero": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), sigma=0),
        "sigma must be positive and finite, got 0",
    ),
    "family-wise-sigma-negative": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), sigma=-1),
        "sigma must be positive and finite, got -1",
    ),
    "family-wise-eta-nan": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), eta=math.nan),
        "eta must be finite, got nan",
    ),
    "evidence-rate-n-half": (lambda path: evidence_rate(_H, _K, 2.5, 5, Seed(0)),
                             "n must be an integer, got 2.5"),
    "evidence-rate-reps-half": (lambda path: evidence_rate(_H, _K, 5, 2.5, Seed(0)),
                                "reps must be an integer, got 2.5"),
    "robbins-reps-half": (
        lambda path: robbins_violation_probability(_H, _K, 2.0, 10, 2.5, Seed(0)),
        "reps must be an integer, got 2.5",
    ),
    "optional-stopping-look-fraction": (
        lambda path: optional_stopping_alpha(GaussianPair(0, 0), 0.05, [10.7], 5, Seed(0)),
        "each look must be an integer, got 10.7",
    ),
    "optional-stopping-reps-half": (
        lambda path: optional_stopping_alpha(GaussianPair(0, 0), 0.05, [10], 2.5, Seed(0)),
        "reps must be an integer, got 2.5",
    ),
    "grade-nan": (lambda path: grade(math.nan), "likelihood ratio is NaN"),
    # a real argument given a str, None or a complex, or an int past the float range
    "significance-level-string": (lambda path: significance_verdict(Fraction(1, 20), "0.05"),
                                  "level must be a real number, got '0.05'"),
    "np-test-alpha-string": (lambda path: np_test(GaussianPair(0, 1), 4, "0.05"),
                             "alpha must be a real number, got '0.05'"),
    "adjust-alpha-string": (lambda path: adjust_alpha("0.05", 2),
                            "family alpha must be a real number, got '0.05'"),
    "power-spec-sigma-string": (lambda path: PowerSpec(alpha=0.05, beta=0.1, eta=1, sigma="1"),
                                "sigma must be a real number, got '1'"),
    "power-spec-sigma-huge": (
        lambda path: PowerSpec(alpha=0.05, beta=0.1, eta=1, sigma=10**400),
        f"sigma must be positive and finite, got {10**400}",
    ),
    "power-spec-alpha-string": (lambda path: PowerSpec(alpha="0.05", beta=0.1, eta=1),
                                "alpha must be a real number, got '0.05'"),
    "power-spec-beta-string": (lambda path: PowerSpec(alpha=0.05, beta="0.1", eta=1),
                               "beta must be a real number, got '0.1'"),
    "power-spec-eta-string": (lambda path: PowerSpec(alpha=0.05, beta=0.1, eta="1"),
                              "eta must be a real number, got '1'"),
    "divergence-string": (lambda path: Divergence("1"),
                          "divergence must be a real number, got '1'"),
    "radius-delta-string": (lambda path: types_bound_radius(2, 10, "0.05"),
                            "delta must be a real number, got '0.05'"),
    "universal-delta-string": (lambda path: UniversalTestConfig("0.05"),
                               "delta must be a real number, got '0.05'"),
    "threshold-string": (lambda path: threshold_verdict(LogEvidence(), "8"),
                         "threshold must be a real number, got '8'"),
    "threshold-none": (lambda path: threshold_verdict(LogEvidence(), None),
                       "threshold must be a real number, got None"),
    "threshold-complex": (lambda path: threshold_verdict(LogEvidence(), 2j),
                          "threshold must be a real number, got 2j"),
    "threshold-half": (lambda path: threshold_verdict(LogEvidence(), 0.5),
                       "threshold must be at least 1, got 0.5"),
    "gaussian-sigma-string": (lambda path: Gaussian(0, "1"),
                              "sigma must be a real number, got '1'"),
    "gaussian-mean-string": (lambda path: Gaussian("0", 1),
                             "means must be a real number, got ('0',)"),
    "gaussian-pair-sigma-string": (lambda path: GaussianPair(0, 1, "1"),
                                   "sigma must be a real number, got '1'"),
    "gaussian-pair-mean-huge": (lambda path: GaussianPair(0, 10**400),
                                f"means must be finite, got (0, {10**400})"),
    "robbins-threshold-string": (
        lambda path: robbins_violation_probability(_H, _K, "2", 10, 5, Seed(0)),
        "threshold must be a real number, got '2'",
    ),
    "robbins-threshold-huge": (
        lambda path: robbins_violation_probability(_H, _K, 10**400, 10, 5, Seed(0)),
        f"threshold must lie in the float range, got {10**400}",
    ),
    "family-wise-sigma-string": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), sigma="1"),
        "sigma must be a real number, got '1'",
    ),
    "family-wise-sigma-huge": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), sigma=10**400),
        f"sigma must be positive and finite, got {10**400}",
    ),
    "family-wise-eta-string": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), eta="1"),
        "eta must be a real number, got '1'",
    ),
    "family-wise-eta-huge": (
        lambda path: family_wise_error(2, 0.05, "bonferroni", 5, Seed(0), eta=10**400),
        f"eta must be finite, got {10**400}",
    ),
    # three checks that keep their own wording for a str
    "quantile-p-string": (lambda path: gaussian_quantile("0.5"),
                          "quantile needs p in (0, 1), got '0.5'"),
    "grade-string": (lambda path: grade("1"), "likelihood ratio must be nonnegative, got '1'"),
    "binomial-tail-k-string": (lambda path: binomial_tail(5, "1", "1/2"),
                               "k must be in [0, 5], got 1"),
    "fisher-dist-without-observed": (
        lambda path: _command("fisher", "--dist", str(_write(path, "a\t1\n"))),
        "--dist needs --observed",
    ),
    "fisher-without-k": (lambda path: _command("fisher", "--n", "5"),
                         "either --dist/--observed or --n/--k/--theta"),
    "power-alpha-outside": (lambda path: _command("power", "--beta", "0.1", "--eta", "0.01",
                                                  "--n", "1"),
                            "required alpha 0.898234 falls outside (0, 0.5]"),
    "power-beta-outside": (lambda path: _command("power", "--alpha", "0.05", "--eta", "1e300",
                                                 "--n", "4"),
                           "required beta 0 falls outside (0, 0.5]"),
}


@pytest.mark.parametrize("case", list(_INPUT_ERRORS))
def test_input_errors_give_their_whole_message(tmp_path, case):
    call, message = _INPUT_ERRORS[case]
    path = tmp_path / "input.txt"
    with pytest.raises(errors.TestlabError) as caught:
        call(path)
    assert str(caught.value) == message.format(path=path)


# an estimator's size that is no integer raises the class that a size below 1
# raises there
_SIZE_ERROR_CLASSES = {
    case: errors.InputError if case.startswith("evidence-rate") else errors.ScenarioError
    for case in _INPUT_ERRORS
    if case.startswith(("evidence-rate", "family-wise", "robbins-reps", "optional-stopping"))
}


@pytest.mark.parametrize("case", sorted(_SIZE_ERROR_CLASSES))
def test_estimator_size_errors_keep_their_class(tmp_path, case):
    with pytest.raises(errors.TestlabError) as caught:
        _INPUT_ERRORS[case][0](tmp_path / "input.txt")
    assert type(caught.value) is _SIZE_ERROR_CLASSES[case]


def test_usage_error_exits_1(capsys):
    rc, _, err = run_cli(capsys, "fisher", "--direction", "sideways", "--n", "4", "--k", "2")
    assert rc == 1


def test_missing_file_exits_1(capsys):
    rc, _, err = run_cli(capsys, "kl", "/nonexistent/a.tsv", "/nonexistent/b.tsv")
    assert rc == 1
    assert "error" in err


def test_binary_file_is_an_input_error(capsys, tmp_path):
    junk = tmp_path / "junk.tsv"
    junk.write_bytes(b"\xff\xfe\x00garbage")
    rc, _, err = run_cli(capsys, "kl", str(junk), str(junk))
    assert rc == 1
    assert "error" in err


def test_unknown_subcommand_exits_1(capsys):
    rc, _, _ = run_cli(capsys, "frequentism")
    assert rc == 1


def test_internal_error_exits_2(capsys, monkeypatch, tmp_path):
    import testlab.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod.harness, "run", boom)
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        "[scenario]\nname = t\nparadigm = fisher\n\n[params]\nn = 2\nk = 1\n"
    )
    rc, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario))
    assert rc == 2
    assert "internal error" in err


# --- negative numbers in exponent form ------------------------------------------


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["np", "--mu-h", "-1e-3", "--mu-k", "1", "--n", "4"], 0),
        (["np", "--mu-h", "0", "--mu-k", "-1E2", "--n", "4"], 1),
        (["np", "--mu-h", "-.5e1", "--mu-k", "-2.e+0", "--n", "4"], 0),
        (["lr", "--h-dist", "@h", "--k-dist", "@k", "--data", "@data", "-s", "-1e3"], 1),
        (["power", "--alpha", "0.05", "--beta", "0.2", "--eta", "-1e-1"], 1),
    ],
)
def test_negative_exponent_value_parses_as_a_separate_argument(capsys, dist_files, argv, rc):
    # each value must read as it does when joined to its flag with '='
    paths = dict(zip(("@h", "@k", "@data"), map(str, dist_files)))
    argv = [paths.get(arg, arg) for arg in argv]
    joined = []
    for arg in argv:
        if arg[:1] == "-" and (arg[1:2].isdigit() or arg[1:2] == "."):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    separate = run_cli(capsys, *argv)
    assert separate == run_cli(capsys, *joined)
    assert separate[0] == rc
    assert "expected one argument" not in separate[2]


# --- one parser per process -----------------------------------------------------


def _valid_runs(files, out_dir):
    """A valid argv for each subcommand but simulate; every other one writes --out."""
    h, k, data = map(str, files)
    pair = ["--h-dist", h, "--k-dist", k]
    runs = [
        ["fisher", "--n", "82", "--k", "80", "--level", "0.01"],
        ["fisher", "--n", "30", "--k", "3", "--theta", "1/3", "--direction", "le"],
        ["lr", *pair, "--data", data, "-s", "2"],
        ["bayes", *pair, "--data", data, "--prior-h", "1/3"],
        ["np", "--mu-h", "0", "--mu-k", "1", "--n", "9", "--alpha", "0.01"],
        ["power", "--alpha", "0.05", "--beta", "0.2", "--eta", "0.5"],
        ["kl", h, k],
        ["map", *pair, "--prior-h", "0.3", data],
        ["hoeffding", "--hypothesis", h, "--delta", "0.1", data],
    ]
    runs += [argv + ["--format", "csv"] for argv in runs]
    for i, argv in enumerate(runs[1::2]):
        argv += ["--out", str(out_dir / f"{i}.txt")]
    return runs


def _outputs(runs):
    """(exit code, stdout, --out file text) of each run in turn, main called in
    this thread; stdout must be routed per thread by the caller."""
    got = []
    for argv in runs:
        rc = main(list(argv))
        out = Path(argv[-1]).read_text() if "--out" in argv else None
        got.append((rc, sys.stdout.take(), out))
    return got


class _ThreadStdout:
    """A stdout whose writes are kept apart per thread."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text):
        self._local.text = getattr(self._local, "text", "") + text
        return len(text)

    def take(self):
        text, self._local.text = getattr(self._local, "text", ""), ""
        return text


def test_out_file_holds_what_stdout_prints_without_it(capsys, dist_files, tmp_path):
    out = tmp_path / "out.txt"
    for argv in _valid_runs(dist_files, tmp_path):
        argv = argv[:argv.index("--out")] if "--out" in argv else argv
        rc, printed, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "") and printed
        assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
        assert out.read_text() == printed, argv


def test_importing_the_cli_builds_no_parser_and_loads_no_hashlib():
    # either would add milliseconds to every process start; the parser is
    # built on the first main() call, hashlib loaded by the first replication
    code = (
        "import sys, testlab.cli as cli; "
        "print(cli._shared_parser.cache_info().currsize, 'hashlib' in sys.modules)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]


def test_main_builds_its_parser_once(capsys, monkeypatch, dist_files, tmp_path):
    assert run_cli(capsys, "kl", *map(str, dist_files[:2]))[0] == 0  # built here
    built = []
    original = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    monkeypatch.setattr(sys, "stdout", _ThreadStdout())
    assert {rc for rc, _, _ in _outputs(_valid_runs(dist_files, tmp_path))} == {0}
    assert built == []


@pytest.mark.parametrize(
    "first, second, key, want",
    [
        (["fisher", "--n", "4", "--k", "2", "--level", "0.01"],
         ["fisher", "--n", "4", "--k", "2"], "level", "0.05"),
        (["lr", "@pair", "-s", "16"], ["lr", "@pair"], "s", "8"),
        (["np", "--mu-h", "0", "--mu-k", "1", "--n", "4", "--alpha", "0.01"],
         ["np", "--mu-h", "0", "--mu-k", "1", "--n", "4"], "rule", "midpoint"),
        (["hoeffding", "--hypothesis", "@h", "--delta", "0.2", "@data"],
         ["hoeffding", "--hypothesis", "@h", "@data"], "delta", "0.05"),
    ],
)
def test_defaults_do_not_leak_between_calls(capsys, dist_files, first, second, key, want):
    h, k, data = map(str, dist_files)
    swap = {"@pair": ["--h-dist", h, "--k-dist", k, "--data", data], "@h": [h], "@data": [data]}

    def expand(argv):
        return [part for arg in argv for part in swap.get(arg, [arg])] + ["--format", "csv"]

    assert run_cli(capsys, *expand(first))[0] == 0
    rc, out, _ = run_cli(capsys, *expand(second))
    assert rc == 0
    assert csv_row(out)[key] == want


@pytest.mark.parametrize(
    "disrupt, code",
    [
        (["fisher", "--direction", "sideways", "--n", "4", "--k", "2"], 1),  # bad choice
        (["lr", "-s", "16", "--bogus"], 1),  # usage error after a parsed value
        (["power", "--alpha", "0.05"], 1),
        (["np", "--mu-h", "0", "--mu-k", "nan", "--n", "4"], 1),  # TestlabError
        (["frequentism"], 1),
        (["--version"], SystemExit),
        (["--help"], SystemExit),
        (["fisher", "--help"], SystemExit),
    ],
)
def test_a_failed_or_exiting_call_leaves_the_next_one_unchanged(capsys, dist_files, disrupt, code):
    h, k, data = map(str, dist_files)
    valid = [
        ["fisher", "--n", "82", "--k", "80", "--format", "csv"],
        ["lr", "--h-dist", h, "--k-dist", k, "--data", data],
        ["np", "--mu-h", "0", "--mu-k", "1", "--n", "4"],
    ]
    before = [run_cli(capsys, *argv) for argv in valid]
    assert {rc for rc, _, _ in before} == {0}
    if code is SystemExit:
        with pytest.raises(SystemExit) as exit_info:
            main(disrupt)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out
    else:
        assert run_cli(capsys, *disrupt)[0] == code
    assert [run_cli(capsys, *argv) for argv in valid] == before


def test_threads_sharing_the_parser_print_what_one_thread_prints(monkeypatch, dist_files, tmp_path):
    # every call parses with the one shared parser, built by the serial run;
    # a short switch interval makes the threads interleave inside argparse
    rounds, threads = 50, 3
    monkeypatch.setattr(sys, "stdout", _ThreadStdout())
    (tmp_path / "serial").mkdir()
    want = _outputs(_valid_runs(dist_files, tmp_path / "serial"))
    assert {rc for rc, _, _ in want} == {0}

    def worker(t):
        out_dir = tmp_path / f"thread{t}"
        out_dir.mkdir()
        runs = _valid_runs(dist_files, out_dir)
        return [_outputs(runs) for _ in range(rounds)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, t) for t in range(threads)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got == [want] * rounds


# --- fuzz: generated inputs never exit 2 -------------------------------------------

_SYMBOLS = ("a", "b", "c")
_ODD_TEXT = (
    "inf", "-inf", "Infinity", "nan", "-0", "1/0", "2/3e1", "0x1p-3", "1e-4300", "1e-4301",
    "1e-10000000", "1e999999999", "0e-99999999", "1" * 5000, "0." + "3" * 4300,
)
_IN_RANGE = st.floats(0.001, 0.5).map(repr)  # valid for every float flag
_NUMBER = st.one_of(
    _IN_RANGE,
    _IN_RANGE,
    st.sampled_from(["nan", "inf", "-inf", "5e-324", "1e-320", "1e-300", "1e300", "-0.0"]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
)
_PROBABILITY = st.one_of(
    st.fractions(0, 1, max_denominator=9).map(str),
    st.floats(0, 1).map(repr),
    st.sampled_from(_ODD_TEXT),
    _NUMBER,
)


def _probability_text(p: Fraction):
    texts = [f"{p.numerator}/{p.denominator}"]
    if 10**6 % p.denominator == 0:  # exact as a decimal
        exact = decimal.Decimal(p.numerator) / p.denominator
        texts += [f"{exact:f}", f"{exact:e}"]
    return st.sampled_from(texts)


@st.composite
def _dist_file(draw, k):
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    weights[0] += sum(weights) == 0  # some symbol has mass
    texts = [draw(_probability_text(Fraction(w, sum(weights)))) for w in weights]
    if draw(st.integers(0, 3)) == 0:
        texts[draw(st.integers(0, k - 1))] = draw(_PROBABILITY)
    return "".join(f"{x}\t{t}\n" for x, t in zip(_SYMBOLS, texts))


@st.composite
def _cli_runs(draw):
    """(argv, files): '@name' in argv stands for the path of files[name]."""
    command = draw(st.sampled_from(
        ["fisher", "lr", "bayes", "kl", "map", "hoeffding", "np", "power"]
    ))
    size = draw(st.integers(2, 3))
    symbols = st.sampled_from(_SYMBOLS[:size])
    files = {
        "h": draw(_dist_file(size)),
        "k": draw(_dist_file(size)),
        "data": "".join(f"{x}\n" for x in draw(st.lists(symbols, max_size=12))),
    }
    if draw(st.integers(0, 3)) == 0:  # a symbol the hypotheses may not know
        files["data"] += draw(st.sampled_from("cd")) + "\n"
    pair = ["--h-dist", "@h", "--k-dist", "@k"]

    def number(flag):
        return f"--{flag}={draw(_NUMBER)}"

    if command == "fisher":
        theta = draw(_PROBABILITY)
        try:  # keep the exact tail, about n times theta's digits, under 60 000 digits
            digits = len(str(parse_probability(theta).denominator))
        except (ValueError, OverflowError):
            digits = 1
        n = draw(st.integers(-1, min(200, 60_000 // digits)))
        argv = ["fisher", f"--n={n}", f"--k={draw(st.integers(-1, n + 1))}",
                f"--theta={theta}", number("level"),
                f"--direction={draw(st.sampled_from(['ge', 'le', 'abs']))}"]
    elif command == "lr":
        argv = ["lr", *pair, "--data", "@data", number("s")]
    elif command == "bayes":
        argv = ["bayes", *pair, "--data", "@data", f"--prior-h={draw(_PROBABILITY)}"]
    elif command == "map":
        argv = ["map", *pair, f"--prior-h={draw(_PROBABILITY)}", "@data"]
    elif command == "kl":
        argv = ["kl", "@h", "@k"]
    elif command == "hoeffding":
        argv = ["hoeffding", "--hypothesis", "@h", number("delta"), "@data"]
    elif command == "np":
        argv = ["np", number("mu-h"), number("mu-k"), number("sigma"),
                f"--n={draw(st.integers(-1, 50))}"]
        if draw(st.booleans()):
            argv.append(number("alpha"))
    else:
        unknown = draw(st.sampled_from(["alpha", "beta", "eta", "n"]))
        argv = ["power", number("sigma")] + [
            f"--n={draw(st.integers(-1, 10**6))}" if name == "n" else number(name)
            for name in ("alpha", "beta", "eta", "n") if name != unknown
        ]
    return tuple(argv), files


@st.composite
def _valid_fisher_runs(draw):
    """fisher argv with 1 <= n, 0 <= k <= n and theta in (0, 1): short
    fractions, decimals of doubles and fractions whose denominators have
    20 to 300 digits."""
    long_denominator = st.integers(20, 300).flatmap(
        lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1))
    theta = draw(st.one_of(
        st.fractions(0, 1, max_denominator=1000).filter(lambda f: 0 < f < 1).map(str),
        st.floats(1e-300, 1, exclude_max=True).map(repr),
        long_denominator.flatmap(lambda b: st.integers(1, b - 1).map(lambda a: f"{a}/{b}")),
    ))
    digits = len(str(parse_probability(theta).denominator))
    n = draw(st.integers(1, min(200, 20_000 // digits)))
    return ("fisher", f"--n={n}", f"--k={draw(st.integers(0, n))}", f"--theta={theta}",
            f"--level={draw(_IN_RANGE)}",
            f"--direction={draw(st.sampled_from(['ge', 'le', 'abs']))}")


def _binomial_tail_mp(n, k, theta, direction):
    with mpmath.workdps(40):
        theta = mpmath.mpf(theta.numerator) / theta.denominator
        terms = [mpmath.binomial(n, j) * theta**j * (1 - theta) ** (n - j) for j in range(n + 1)]
        # counts are nonnegative, so the abs tail is the upper one
        return mpmath.fsum(terms[: k + 1] if direction == "le" else terms[k:])


_POWER_EDGE = ("--alpha=0.05", "--beta=0.2")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(run=_cli_runs())
@example(run=(("kl", "@h", "@k"), {"h": "a\tinf\nb\t1/2\n", "k": "a\t1/2\nb\t1/2\n", "data": ""}))
@example(run=(("kl", "@h", "@k"), {"h": "a\t1e999999999\n", "k": "a\t1\n", "data": ""}))
@example(run=(("fisher", "--n=10", "--k=3", "--theta=inf"), {}))
@example(run=(("fisher", "--n=10", "--k=3", "--theta=1e-10000000"), {}))
@example(run=(("bayes", "--h-dist", "@h", "--k-dist", "@k", "--prior-h=inf", "--data", "@data"),
              {"h": "a\t1/2\nb\t1/2\n", "k": "a\t1/4\nb\t3/4\n", "data": "a\n"}))
@example(run=(("hoeffding", "--hypothesis", "@h", "--delta=1e-320", "@data"),
              {"h": "a\t1/2\nb\t1/2\nc\t0\n", "data": "a\nc\nb\n"}))
@example(run=(("power",) + _POWER_EDGE + ("--eta=nan",), {}))
@example(run=(("power",) + _POWER_EDGE + ("--eta=1e-300",), {}))
@example(run=(("power",) + _POWER_EDGE + ("--eta=0.5", "--sigma=inf"), {}))
@example(run=(("fisher", "--n=1100", "--k=1100", "--theta=1/2"), {}))
@example(run=(("fisher", "--n=14", "--k=0", "--theta=5e-324"), {}))  # 4 526-digit denominator
@example(run=(("fisher", "--n=200", "--k=3", "--theta=1e-300"), {}))  # 60 000 digits
def test_cli_fuzz_exits_0_or_1_and_fisher_tails_match_mpmath(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[f"@{name}"] = Path(tmp) / name
            paths[f"@{name}"].write_text(text, encoding="utf-8")
        argv = [str(paths.get(arg, arg)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*argv, "--format=csv"])
    event(f"{argv[0]} exit {rc}")  # shown by --hypothesis-show-statistics
    assert rc in (0, 1), err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: ")
    if argv[0] == "fisher" and rc == 0:
        _check_fisher_csv(argv, out.getvalue())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(argv=_valid_fisher_runs())
def test_cli_fuzz_valid_fisher_runs_exit_0_and_match_mpmath(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([*argv, "--format=csv"])
    assert rc == 0, err.getvalue()
    _check_fisher_csv(argv, out.getvalue())


def _check_fisher_csv(argv, out):
    """The exact, float and log10 tails of a fisher CSV against mpmath."""
    flags = {"direction": "ge", **dict(arg[2:].split("=", 1) for arg in argv[1:])}
    row = csv_row(out)
    p_exact = Fraction(*map(int, map(decimal.Decimal, row["p_exact"].split("/"))))
    theta = parse_probability(flags["theta"])
    want = _binomial_tail_mp(int(flags["n"]), int(flags["k"]), theta, flags["direction"])
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(p_exact.numerator) / p_exact.denominator - want) <= 1e-12 * want
    # printed to 12 significant digits; a subnormal double is exact to its ulp
    p_float = float(row["p_float"])
    assert abs(p_float - want) <= 1e-11 * want + 5e-324
    if p_float == 0 and want > 0:
        assert abs(float(row["log10_p"]) - mpmath.log10(want)) <= 1e-11 * abs(mpmath.log10(want))


# --- fuzz: generated scenario files never exit 2 ---------------------------------

_USUALLY = st.sampled_from([True] * 7 + [False])


def _mostly(valid, edge):
    return _USUALLY.flatmap(lambda ok: valid if ok else st.sampled_from(edge))


_LEVEL_TEXT = _mostly(st.sampled_from(["0.05", "0.5"]),
                      ["0", "1", "5e-324", "0.9999999999999999", "nan"])
# strictly increasing from 1, and at times repeated, descending or from 0
_INCREASING = st.sets(st.integers(1, 2000), min_size=1, max_size=4).map(sorted)
_MARKS = st.one_of(_INCREASING, _INCREASING, st.lists(st.integers(0, 2000), max_size=4))
_VALUES = {
    "n": _mostly(st.integers(1, 2000).map(str), ["0", "-1", "1.5"]),
    "k": _mostly(st.integers(0, 40).map(str), ["-1", "2001"]),
    "horizon": _mostly(st.integers(1, 2000).map(str), ["0", "-1"]),
    "s": _mostly(st.sampled_from(["1", "8", "1.5"]), ["inf", "nan", "0"]),
    "alpha": _LEVEL_TEXT, "delta": _LEVEL_TEXT, "level": _LEVEL_TEXT, "prior-h": _LEVEL_TEXT,
    "theta": _mostly(st.sampled_from(["1/2", "1/3", "0.25"]), ["0", "1", "2", "nan"]),
    "direction": _mostly(st.sampled_from(["ge", "le", "abs"]), ["up"]),
    "observed": _mostly(st.sampled_from(["a", "b"]), ["z"]),
    "looks": _MARKS.map(lambda v: " ".join(map(str, v))),
    "lr-eta": _mostly(st.sampled_from(["0.5", "1e-300"]), ["-5", "inf", "nan"]),
}
_VALUES["checkpoints"] = _VALUES["looks"]
# the keys a mode ignores, which most drawn files leave out
_OTHER_MODE = {"horizon": ("n", "checkpoints"), "observed": ("n", "k", "theta")}


@st.composite
def _hypothesis_section(draw, name, size):
    size = draw(size)
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    weights[0] += sum(weights) == 0
    cells = (f"{x} = {w}/{sum(weights)}\n" for x, w in zip(_SYMBOLS, weights))
    return f"[{name}]\n" + "".join(cells)


# a scenario value is literal text, where '%' is an ordinary character and an
# indented line continues the value above it
_NAMES = st.sampled_from(["fuzz"] * 4 + ["p%", "p%%", "%(paradigm)s", "fuzz\n  more"])
_DEFAULTS = st.sampled_from([None] * 15 + ["", "n = 4\n", "name = %(paradigm)s\n"])


@st.composite
def _scenario_files(draw):
    """A scenario file for one paradigm: its table keys with edge values, at
    times one misspelt key or another paradigm's, a '%' in a name or value,
    continuation lines, a [DEFAULT] section, and at most 64 reps."""
    paradigm = draw(st.sampled_from(harness.PARADIGMS))
    root = draw(st.sampled_from([0, 7, 2**64 - 1]))
    stream = draw(st.sampled_from([0, 3, 2**32 + 1]))
    defaults = draw(_DEFAULTS)
    text = "" if defaults is None else f"[DEFAULT]\n{defaults}"
    text += (f"[scenario]\nname = {draw(_NAMES)}\nparadigm = {paradigm}\n"
             f"truth = {draw(st.sampled_from('HHK'))}\nreps = {draw(st.integers(0, 64))}\n"
             f"seed-root = {root}\nseed-stream = {stream}\n")
    size = draw(st.integers(1, 3))  # one-symbol alphabets, and zero-mass cells
    for name in ("hypothesis-h", "hypothesis-k"):
        if draw(_USUALLY):
            text += draw(_hypothesis_section(name, _mostly(st.just(size), [1, 2, 3])))
    if draw(_USUALLY if paradigm == "np" else st.booleans()):
        mu_h = draw(st.sampled_from(["0", "0.5"]))
        mu_k = draw(st.sampled_from([mu_h, "1"]))
        sigma = draw(st.sampled_from(["1", "0.5"]))
        text += f"[gaussian]\nmu-h = {mu_h}\nmu-k = {mu_k}\nsigma = {sigma}\n"
    keys = harness._RUNNERS[paradigm][1]
    params = {key: draw(_VALUES[key]) for key in keys if draw(_USUALLY)}
    for mode, ignored in _OTHER_MODE.items():
        if mode in params and draw(_USUALLY):
            for key in ignored:
                params.pop(key, None)
    if not draw(_USUALLY):
        other = draw(st.sampled_from(sorted(set(_VALUES) - set(keys))))
        stray = draw(st.sampled_from([other, keys[0] + "s", keys[-1][::-1]]))
        params[stray] = draw(_VALUES.get(stray, _VALUES["n"]))
    if params and not draw(_USUALLY):  # read literally, each fails its key's parser
        key = draw(st.sampled_from(sorted(params)))
        params[key] = draw(st.sampled_from([params[key] + "%", "%%", "%(n)s"]))
    sep = draw(st.sampled_from([" ", " ", "\n  "]))  # looks on continuation lines
    return text + "[params]\n" + "".join(
        f"{key} = {value.replace(' ', sep)}\n" for key, value in params.items()
    )


def _without_clock(csv_text):
    return [line for line in csv_text.splitlines() if "wall_clock" not in line]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=_scenario_files())
@example(text="[scenario]\nname = p%\nparadigm = lr\nreps = 5\n[hypothesis-h]\na = 1/2\n"
         "b = 1/2\n[hypothesis-k]\na = 1/4\nb = 3/4\n[params]\nn = 4\ns = 2\n")
def test_simulate_fuzz_exits_0_or_1_and_does_not_depend_on_workers(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scenario"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["simulate", "--scenario", str(path)])
        event(f"exit {rc}")  # shown by --hypothesis-show-statistics
        assert rc in (0, 1), err.getvalue()
        if rc == 1:
            assert err.getvalue().startswith("error: ")
            return
        scenario = harness.load_scenario(path)
    # chunks of 16 on a pool of two threads at every width, so that 64 reps
    # spread over the workers
    with mock.patch.object(harness, "_CHUNK", 16), mock.patch.object(harness, "_POOL_WIDTH", 1):
        one, two = (harness.run(scenario, workers=w) for w in (1, 2))
    assert _without_clock(one.to_csv()) == _without_clock(out.getvalue())
    assert _without_clock(two.to_csv()) == _without_clock(out.getvalue())
    assert one.replication_digests == two.replication_digests
