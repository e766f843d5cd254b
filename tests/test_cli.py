import contextlib
import csv
import decimal
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from testlab import binomial_tail
from testlab.cli import main
from testlab.dist import parse_probability

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
