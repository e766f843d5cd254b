import csv
import io
from pathlib import Path

import pytest

from testlab.cli import main

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


def test_fisher_accepts_decimal_theta(capsys):
    rc, out, _ = run_cli(
        capsys, "fisher", "--n", "4", "--k", "4", "--theta", "0.5", "--format", "csv"
    )
    assert rc == 0
    row = csv_row(out)
    assert row["p_exact"] == "1/16"
    assert row["significant"] == "no"


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


# --- exit codes -------------------------------------------------------------------


def test_input_error_exits_1(capsys):
    rc, _, err = run_cli(capsys, "power", "--alpha", "0.05")
    assert rc == 1
    assert "error" in err


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
