import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from testlab import (
    GaussianPair,
    Seed,
    Verdict,
    binomial_tail,
    family_wise_error,
    lr_threshold_as_kl_margin,
    load_scenario,
    optional_stopping_alpha,
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


def test_worker_count_does_not_change_results():
    scenario = small_lr_scenario(reps=3000)
    serial = run_scenario(scenario, workers=1)
    threaded = run_scenario(scenario, workers=4)
    assert _csv_without_clock(serial) == _csv_without_clock(threaded)


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


def test_family_wise_error_sidak_close_to_bonferroni():
    _, fwer_b, power_b, _ = family_wise_error(10, 0.05, "bonferroni", 2000, Seed(11))
    _, fwer_s, power_s, _ = family_wise_error(10, 0.05, "sidak", 2000, Seed(11))
    assert fwer_s.value <= 0.05 + 3 * fwer_s.se
    assert power_s >= power_b  # sidak is the (slightly) less conservative split
