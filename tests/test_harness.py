import math
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from testlab import (
    GaussianPair,
    Seed,
    Verdict,
    binomial_tail,
    evidence_rate,
    family_wise_error,
    harness,
    lr_threshold_as_kl_margin,
    load_scenario,
    optional_stopping_alpha,
    robbins_violation_probability,
    run_scenario,
)
from testlab.dist import _finite_indices
from testlab.errors import ScenarioError
from testlab.harness import Scenario

from helpers import bernoulli

PAPER_SUITE = Path(__file__).resolve().parents[1] / "paper-suite"

H_FAIR = bernoulli(Fraction(1, 2))
K_THREEQ = bernoulli(Fraction(3, 4))


def small_lr_scenario(**overrides):
    base = dict(
        name="lr-small",
        paradigm="lr",
        truth="H",
        reps=400,
        seed=Seed(1234),
        h=H_FAIR,
        k=K_THREEQ,
        params={"s": "8", "horizon": "150"},
    )
    base.update(overrides)
    return Scenario(**base)


# --- scenario files ----------------------------------------------------------


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "demo.scenario"
    path.write_text(
        "[scenario]\n"
        "name = demo\n"
        "paradigm = map\n"
        "truth = K\n"
        "reps = 50\n"
        "seed-root = 99\n"
        "\n"
        "[hypothesis-h]\n"
        "Yes = 1/2\n"
        "No = 1/2\n"
        "\n"
        "[hypothesis-k]\n"
        "Yes = 0.75\n"
        "No = 0.25\n"
        "\n"
        "[params]\n"
        "n = 20\n"
    )
    scenario = load_scenario(path)
    assert scenario.name == "demo"
    assert scenario.truth == "K"
    assert scenario.h.alphabet == ("Yes", "No")  # label case preserved
    assert scenario.k.prob("Yes") == Fraction(3, 4)  # decimals parse exactly
    report = run_scenario(scenario)
    assert report.verdict_counts["decide_k"] + report.verdict_counts["decide_h"] == 50


def test_load_scenario_rejects_garbage(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text("[scenario]\nname = x\nparadigm = astrology\nreps = 5\n")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_missing_params_are_reported(tmp_path):
    scenario = small_lr_scenario(params={})
    with pytest.raises(ScenarioError):
        run_scenario(scenario)


def test_bundled_suite_parses():
    files = sorted(PAPER_SUITE.glob("*.scenario"))
    assert len(files) >= 13
    for path in files:
        scenario = load_scenario(path)
        assert scenario.name == path.stem


# --- reproducibility -----------------------------------------------------------


def _csv_without_clock(report):
    return [line for line in report.to_csv().splitlines() if "wall_clock" not in line]


def test_bit_identical_reruns():
    scenario = small_lr_scenario()
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert _csv_without_clock(a) == _csv_without_clock(b)


def test_worker_count_does_not_change_results(monkeypatch):
    monkeypatch.setattr(harness, "_POOL_WIDTH", 1)  # horizon 150 would run unthreaded
    scenario = small_lr_scenario(reps=3000)
    serial = run_scenario(scenario, workers=1)
    threaded = run_scenario(scenario, workers=4)
    assert _csv_without_clock(serial) == _csv_without_clock(threaded)


def _scenario(paradigm, reps, params, **fields):
    return Scenario(name=paradigm, paradigm=paradigm, reps=reps, seed=Seed(7),
                    h=H_FAIR, k=K_THREEQ, params=params, **fields)


_OS_PARAMS = {"alpha": "0.05", "looks": "10 20"}
_EXPERIMENTS = {
    "lr-horizon": lambda: run_scenario(_scenario("lr", 1100, {"horizon": "20"}), workers=2),
    "lr-n": lambda: run_scenario(_scenario("lr", 300, {"n": "20"}), workers=2),
    "bayes": lambda: run_scenario(_scenario("bayes", 300, {"n": "20"}), workers=2),
    "np": lambda: run_scenario(
        _scenario("np", 300, {"n": "4"}, gaussian=GaussianPair(0.0, 0.5, 1.0)), workers=2
    ),
    "map": lambda: run_scenario(_scenario("map", 300, {"n": "20"}, truth="K"), workers=2),
    "hoeffding": lambda: run_scenario(_scenario("hoeffding", 300, {"n": "20"}), workers=2),
    "optional-stopping-gaussian": lambda: run_scenario(
        _scenario("optional-stopping", 300, _OS_PARAMS, gaussian=GaussianPair(0, 0, 1)),
        workers=2,
    ),
    "optional-stopping-finite": lambda: run_scenario(
        _scenario("optional-stopping", 300, _OS_PARAMS), workers=2
    ),
    "robbins": lambda: robbins_violation_probability(H_FAIR, K_THREEQ, 8.0, 20, 300, Seed(7)),
    "evidence-rate": lambda: evidence_rate(H_FAIR, K_THREEQ, 20, 300, Seed(7)),
    "family-wise-error": lambda: family_wise_error(5, 0.05, "bonferroni", 300, Seed(7)),
    "optional-stopping-alpha": lambda: optional_stopping_alpha(
        GaussianPair(0, 0, 1), alpha=0.05, looks=(10, 20), reps=300, seed=Seed(7)
    ),
}


@pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
def test_every_replication_runs_through_one_for_each_rep_call(monkeypatch, name):
    # perfbench's tracer rebinds harness._for_each_rep the same way; its body
    # takes one chunk's span of replications, flattened here
    calls = []
    original = harness._for_each_rep

    def counting(reps, workers, body):
        seen = []
        calls.append((reps, seen))

        def counted(span):
            seen.extend(span)
            return body(span)

        return original(reps, workers, counted)

    monkeypatch.setattr(harness, "_for_each_rep", counting)
    _EXPERIMENTS[name]()
    reps = 1100 if name == "lr-horizon" else 300
    assert [(n, sorted(seen)) for n, seen in calls] == [(reps, list(range(reps)))]


_ORDERED = {
    "lr-n": lambda: _scenario("lr", 1100, {"n": "20"}),
    "bayes": lambda: _scenario("bayes", 1100, {"n": "20"}),
    "map": lambda: _scenario("map", 1100, {"n": "20"}, truth="K"),
    "np": lambda: _scenario("np", 1100, {"n": "4"}, gaussian=GaussianPair(0.0, 0.5, 1.0)),
    "hoeffding": lambda: _scenario("hoeffding", 1100, {"n": "20"}, truth="K"),
}


@pytest.mark.parametrize("name", sorted(_ORDERED))
def test_per_replication_verdicts_do_not_depend_on_the_worker_count(monkeypatch, name):
    # every CSV row sums over replications; only the verdicts keep their order.
    # 1 100 replications make two chunks, one per worker, on pool threads
    monkeypatch.setattr(harness, "_POOL_WIDTH", 1)
    serial = run_scenario(_ORDERED[name](), workers=1).verdicts
    threaded = run_scenario(_ORDERED[name](), workers=2).verdicts
    assert len(serial) == 1100 and len(set(serial)) > 1
    assert serial == threaded


def _replicated(run, workers):
    """The arguments of every harness._replicate call run() makes, each with
    its output array as filled at the given worker count."""
    calls = []
    original = harness._replicate

    def capture(seed, _workers, out, width, fill, reduce, report=None):
        original(seed, workers, out, width, fill, reduce, report)
        calls.append((out.copy(), seed, width, fill, reduce))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_replicate", capture)
        run()
    return calls


_OS_FULL = {"alpha": "0.2", "looks": "10 20 40"}
_BLOCKED = {
    "lr-horizon": _scenario("lr", 1025, {"horizon": "20"}, truth="K"),
    "lr-n": _scenario("lr", 1025, {"n": "20"}),
    "bayes": _scenario("bayes", 1025, {"n": "20"}),
    "map": _scenario("map", 1025, {"n": "20"}, truth="K"),
    "np": _scenario("np", 1025, {"n": "4"}, gaussian=GaussianPair(0.0, 0.5, 1.0)),
    "hoeffding": _scenario("hoeffding", 1025, {"n": "20"}, truth="K"),
    "optional-stopping-gaussian": _scenario(
        "optional-stopping", 1025, _OS_FULL, gaussian=GaussianPair(0, 0, 1)
    ),
    "optional-stopping-finite": _scenario("optional-stopping", 1025, _OS_FULL),
}


@pytest.mark.parametrize("name", sorted(_BLOCKED) + ["family-wise-error"])
def test_replication_order_does_not_depend_on_blocks_or_workers(monkeypatch, name):
    # 1 025 replications leave a trailing one-replication chunk. Blocks of
    # many rows at 2 workers must fill out exactly as one-row blocks at 1
    # worker, and slot i must hold what replication i's own generator gives
    if name == "family-wise-error":
        run = lambda: family_wise_error(5, 0.2, "bonferroni", 1025, Seed(7))  # noqa: E731
    else:
        run = lambda: run_scenario(_BLOCKED[name])  # noqa: E731
    monkeypatch.setattr(harness, "_POOL_WIDTH", 1)
    [(blocked, seed, width, fill, reduce)] = _replicated(run, workers=2)
    monkeypatch.setattr(harness, "_CELLS", 1)
    [(single, *_)] = _replicated(run, workers=1)
    assert len(blocked) == 1025 and len(np.unique(blocked.reshape(1025, -1), axis=0)) > 1
    assert np.array_equal(blocked, single)
    row = np.empty(width)
    for i in range(1025):
        getattr(seed.rng(i), fill)(out=row)
        assert np.array_equal(single[i], reduce(row)), i


@pytest.mark.parametrize("width, pooled", [(harness._POOL_WIDTH - 1, False),
                                           (harness._POOL_WIDTH, True)])
def test_only_replications_at_least_pool_width_wide_run_on_pool_threads(
    monkeypatch, width, pooled
):
    threads = []
    original = harness._for_each_rep

    def recording(reps, workers, body):
        def recorded(span):
            threads.append(threading.get_ident())
            return body(span)

        return original(reps, workers, recorded)

    monkeypatch.setattr(harness, "_for_each_rep", recording)
    out = np.empty(2 * harness._CHUNK)
    harness._replicate(Seed(7), 2, out, width, "random", lambda block: block[..., 0])
    assert len(threads) == 2
    on_caller = [t == threading.get_ident() for t in threads]
    assert on_caller == [not pooled] * 2


@pytest.mark.parametrize("k", [8, 12])
def test_block_divergence_sums_each_row_as_its_nonzero_terms_alone(k):
    rng = np.random.default_rng(k)
    h = 1.0 + rng.random(k)
    h /= h.sum()
    log_h = np.log(h)
    n = 3 * k  # some rows miss a symbol, the rest show every one
    counts = rng.multinomial(n, h, size=3000)
    assert 500 < (counts == 0).any(axis=1).sum() < 2500
    got = harness._divergences(counts, n, log_h)
    for row, d in zip(counts, got):
        seen = row > 0
        freqs = row[seen] / n
        want = np.sum(freqs * (np.log(freqs) - log_h[seen]))
        assert float(d).hex() == float(want).hex(), row


def test_hoeffding_truth_needs_the_hypothesis_alphabet():
    k = bernoulli(Fraction(3, 4), labels=("a", "c"))
    scenario = Scenario(name="mismatch", paradigm="hoeffding", truth="K", reps=5,
                        seed=Seed(7), h=H_FAIR, k=k, params={"n": "10"})
    with pytest.raises(ScenarioError, match="alphabets differ"):
        run_scenario(scenario)


def test_an_exact_fisher_scenario_replicates_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "_for_each_rep", lambda *args: calls.append(args))
    run_scenario(_scenario("fisher", 0, {"n": "10", "k": "8"}))
    assert calls == []


def test_rates_are_probabilities_with_finite_se():
    report = run_scenario(small_lr_scenario())
    for est in report.rates.values():
        assert 0.0 <= est.value <= 1.0
        assert math.isfinite(est.se)


# --- per-paradigm behaviour -------------------------------------------------------


def test_lr_identical_hypotheses_never_accept_k():
    scenario = small_lr_scenario(k=H_FAIR, params={"s": "2", "horizon": "100"})
    report = run_scenario(scenario)
    assert report.rates["crossing_rate"].value == 0.0


def test_lr_one_shot_reports_ordered_trajectory_quantiles():
    scenario = small_lr_scenario(params={"s": "8", "n": "40"})
    report = run_scenario(scenario)
    for checkpoint in (10, 20, 30, 40):
        q05 = report.trajectory[f"log_lr_q05@{checkpoint}"]
        q50 = report.trajectory[f"log_lr_q50@{checkpoint}"]
        q95 = report.trajectory[f"log_lr_q95@{checkpoint}"]
        assert q05 <= q50 <= q95
        assert math.isfinite(q50)
    counts = report.verdict_counts
    assert counts["accept_k"] + counts["accept_h"] + counts["continue"] == 400


def test_np_scenario_matches_analytic_alpha():
    scenario = Scenario(
        name="np-check",
        paradigm="np",
        truth="H",
        reps=4000,
        seed=Seed(777),
        gaussian=GaussianPair(0.0, 1.0, 1.0),
        params={"n": "16"},
    )
    report = run_scenario(scenario)
    est = report.rates["decide_k_rate"]
    analytic = report.values["alpha_analytic"]
    assert abs(est.value - analytic) <= 3 * est.se + 1e-9


def test_fisher_scenario_reports_exact_values():
    scenario = Scenario(
        name="fisher-exact",
        paradigm="fisher",
        params={"n": "82", "k": "80", "theta": "1/2", "direction": "ge"},
    )
    report = run_scenario(scenario)
    assert report.values["p_exact"] == Fraction(3404, 2**82)
    assert report.values["significant"] is True


def test_optional_stopping_rates_are_cumulative():
    scenario = Scenario(
        name="looks",
        paradigm="optional-stopping",
        truth="H",
        reps=2000,
        seed=Seed(4242),
        gaussian=GaussianPair(0.0, 0.0, 1.0),
        params={"alpha": "0.05", "looks": "10 20 30", "s": "20"},
    )
    report = run_scenario(scenario)
    cum = [report.rates[f"cumulative_reject@{n}"].value for n in (10, 20, 30)]
    assert cum == sorted(cum)
    lr = [report.rates[f"lr_crossed@{n}"].value for n in (10, 20, 30)]
    assert lr == sorted(lr)


def test_optional_stopping_alpha_function_inflates_from_second_look():
    result = optional_stopping_alpha(
        GaussianPair(0.0, 0.0, 1.0),
        alpha=0.05,
        looks=(20, 40, 60),
        reps=4000,
        seed=Seed(90210),
    )
    first, second, third = result.cumulative_reject
    assert abs(first.value - 0.05) <= 3 * first.se
    assert second.value > 0.05 + 3 * second.se
    assert first.value <= second.value <= third.value
    assert result.s == 20.0  # default 1/alpha
    for est in result.lr_crossed:
        assert est.value <= 1 / result.s + 3 * est.se


def test_optional_stopping_at_alpha_where_one_minus_alpha_rounds_to_one():
    result = optional_stopping_alpha(
        GaussianPair(0.0, 0.0, 1.0), alpha=1e-17, looks=(20, 40), reps=50, seed=Seed(1)
    )
    assert [r.value for r in result.cumulative_reject] == [0.0, 0.0]


def test_optional_stopping_alpha_function_finite_null():
    result = optional_stopping_alpha(
        H_FAIR,
        alpha=0.05,
        looks=(25, 50),
        reps=800,
        seed=Seed(90211),
        alternative=K_THREEQ,
    )
    assert result.cumulative_reject[0].value <= result.cumulative_reject[1].value


def test_optional_stopping_rejects_nonnull_setup():
    scenario = Scenario(
        name="bad-looks",
        paradigm="optional-stopping",
        truth="H",
        reps=10,
        seed=Seed(1),
        gaussian=GaussianPair(0.0, 1.0, 1.0),
        params={"alpha": "0.05", "looks": "5 10"},
    )
    with pytest.raises(ScenarioError):
        run_scenario(scenario)


def test_optional_stopping_finite_alphabet_variant():
    scenario = Scenario(
        name="binary-looks",
        paradigm="optional-stopping",
        truth="H",
        reps=1500,
        seed=Seed(5151),
        h=H_FAIR,
        k=K_THREEQ,
        params={"alpha": "0.05", "looks": "20 40 60", "s": "20"},
    )
    report = run_scenario(scenario)
    cum = [report.rates[f"cumulative_reject@{n}"].value for n in (20, 40, 60)]
    assert cum == sorted(cum)
    final_lr = report.rates["lr_crossed@60"]
    assert final_lr.value <= 1 / 20 + 3 * final_lr.se


def _first_significant_count(n, theta, alpha):
    # reference search: try every count in turn; n + 1 if none is significant
    for c in range(n + 1):
        if binomial_tail(n, c, theta).significant(alpha):
            return c
    return n + 1


@pytest.mark.parametrize(
    "p_first, alpha, looks",
    [
        (Fraction(1, 2), 0.05, (10, 25, 40)),
        (Fraction(2, 3), 0.01, (5, 17, 30)),
        (Fraction(1, 10), 0.2, (1, 2, 8)),
        (Fraction(3, 4), 0.5, (3, 6, 9, 12)),
        # no count is significant at n = 10: the smallest tail there is 2**-10
        (Fraction(1, 2), 1e-12, (10, 45)),
    ],
)
def test_finite_optional_stopping_cutoffs_match_count_search(p_first, alpha, looks):
    h, k = bernoulli(p_first), bernoulli(p_first / 2)
    theta = h.probs[1]
    reps, seed = 400, Seed(8080)
    scenario = Scenario(
        name="cutoffs",
        paradigm="optional-stopping",
        reps=reps,
        seed=seed,
        h=h,
        k=k,
        params={"alpha": repr(alpha), "looks": " ".join(map(str, looks))},
    )
    report = run_scenario(scenario)
    # regenerate each replication's draws and retest at every look
    cutoffs = [_first_significant_count(n, theta, alpha) for n in looks]
    hits = [0] * len(looks)
    for i in range(reps):
        counts = np.cumsum(_finite_indices(h, looks[-1], seed.rng(i)))
        rejected = False
        for j, (n, cut) in enumerate(zip(looks, cutoffs)):
            rejected = rejected or bool(counts[n - 1] >= cut)
            hits[j] += rejected
    rates = [report.rates[f"cumulative_reject@{n}"].value for n in looks]
    assert rates == [hit / reps for hit in hits]


def test_cross_paradigm_coherence_map_lr_and_margin():
    # equal-prior MAP decisions, the ratio threshold at s=1, and the
    # nearest-hypothesis margin rule must agree replication by replication
    common = dict(
        truth="H",
        reps=300,
        seed=Seed(2025),
        h=H_FAIR,
        k=K_THREEQ,
    )
    map_report = run_scenario(
        Scenario(name="m", paradigm="map", params={"n": "15", "prior-h": "0.5"}, **common)
    )
    lr_report = run_scenario(
        Scenario(name="l", paradigm="lr", params={"n": "15", "s": "1"}, **common)
    )
    map_k = [v == "K" for v in map_report.verdicts]
    lr_k = [v == "accept_k" for v in lr_report.verdicts]
    # regenerate each replication's draws and apply the margin rule directly
    margin_k = []
    ties = 0
    for i in range(common["reps"]):
        idx = _finite_indices(H_FAIR, 15, common["seed"].rng(i))
        xs = [H_FAIR.alphabet[j] for j in idx]
        verdict = lr_threshold_as_kl_margin(H_FAIR, K_THREEQ, xs, 1).verdict
        margin_k.append(verdict is Verdict.ACCEPT_K)
    assert lr_k == margin_k
    # MAP ties go to H while the s=1 threshold tie goes to K; this pair
    # admits no ties, so the verdicts coincide outright
    assert map_k == lr_k


def test_scenario_error_carries_name():
    scenario = small_lr_scenario(params={"s": "8"})  # no horizon and no n
    with pytest.raises(ScenarioError, match="lr-small"):
        run_scenario(scenario)


# --- family-wise error -----------------------------------------------------------


def test_family_wise_error_single_test_is_nominal():
    per_test, fwer, analytic_power, mc_power = family_wise_error(
        1, 0.05, "bonferroni", reps=4000, seed=Seed(606)
    )
    assert per_test == 0.05
    assert abs(fwer.value - 0.05) <= 3 * fwer.se
    assert abs(mc_power.value - analytic_power) <= 3 * mc_power.se + 1e-9


def test_family_wise_error_controlled_and_power_decays():
    powers = []
    for m in (1, 5, 20):
        per_test, fwer, analytic_power, _ = family_wise_error(
            m, 0.05, "bonferroni", reps=4000, seed=Seed(607 + m)
        )
        assert fwer.value <= 0.05 + 3 * fwer.se
        powers.append(analytic_power)
    assert powers[0] > powers[1] > powers[2]


def test_family_wise_error_where_one_minus_alpha_rounds_to_one():
    per_test, fwer, analytic_power, _ = family_wise_error(
        100, 1e-15, "bonferroni", 10, Seed(1)
    )
    assert per_test == 1e-15 / 100
    with mpmath.workdps(60):
        z = -mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(per_test) - 1)
        want = float(mpmath.ncdf(0.5 * 5 - z))  # shift eta * sqrt(n) / sigma
    assert abs(analytic_power - want) <= 1e-12 * want
    assert fwer.value == 0.0


def test_family_wise_error_sidak_close_to_bonferroni():
    _, fwer_b, power_b, _ = family_wise_error(10, 0.05, "bonferroni", 2000, Seed(11))
    _, fwer_s, power_s, _ = family_wise_error(10, 0.05, "sidak", 2000, Seed(11))
    assert fwer_s.value <= 0.05 + 3 * fwer_s.se
    assert power_s >= power_b  # sidak is the (slightly) less conservative split
