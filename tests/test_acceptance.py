"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. Monte Carlo criteria
execute the bundled paper-suite scenarios with their frozen seeds; exact
and enumeration criteria compute their oracles inline. Everything is
headless and deterministic.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from testlab import (
    FiniteDistribution,
    GaussianPair,
    PowerSpec,
    Priors,
    Seed,
    TailDirection,
    UniversalDecision,
    UniversalTestConfig,
    Verdict,
    binomial_tail,
    evidence_from_sample,
    gaussian_cdf,
    hoeffding_test,
    identical_point_prob_pair,
    kl,
    load_scenario,
    loglr_kl_identity_check,
    lr_threshold_as_kl_margin,
    map_decide,
    midpoint_rule,
    p_value,
    run_scenario,
    sample,
    solve_power,
    threshold_verdict,
)

from helpers import (
    bernoulli,
    random_float_dist,
    random_rational_dist,
    super_uniformity_holds,
)

PAPER_SUITE = Path(__file__).resolve().parents[1] / "paper-suite"


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_suite_scenario(name: str):
    return run_scenario(load_scenario(PAPER_SUITE / f"{name}.scenario"))


def test_c01_exact_tail_eighty_of_eighty_two():
    started = time.perf_counter()
    rep = binomial_tail(82, 80, Fraction(1, 2), TailDirection.GREATER_EQUAL)
    elapsed = time.perf_counter() - started
    scenario_value = run_suite_scenario("c01-exact-tail-80").values["p_exact"]
    one_sig_fig = f"{float(rep.p):.0e}"
    ok = (
        rep.p == Fraction(3404, 2**82)
        and scenario_value == rep.p
        and one_sig_fig == "7e-22"
        and elapsed < 1.0
    )
    report(
        "criterion-01",
        ok,
        f"tail({82},{80}) = {rep.p} = {one_sig_fig}, {elapsed:.3f}s",
    )


def test_c02_exact_tail_all_eighty_two():
    rep = binomial_tail(82, 82, Fraction(1, 2), TailDirection.GREATER_EQUAL)
    scenario_value = run_suite_scenario("c02-exact-tail-82").values["p_exact"]
    ok = rep.p == Fraction(1, 2**82) and scenario_value == rep.p
    report("criterion-02", ok, f"tail({82},{82}) = {rep.p}")


def test_c03_identical_point_probability_different_tails():
    sharp, heavy, x = identical_point_prob_pair()
    p_sharp = p_value(sharp, x, TailDirection.LESS_EQUAL)
    p_heavy = p_value(heavy, x, TailDirection.LESS_EQUAL)
    scen_sharp = run_suite_scenario("c03a-sharp-tail").values
    scen_heavy = run_suite_scenario("c03b-heavy-tail").values
    ok = (
        p_sharp.p == Fraction(3, 100)
        and p_heavy.p == Fraction(42, 100)
        and p_sharp.point_prob == p_heavy.point_prob == Fraction(2, 100)
        and scen_sharp["p_exact"] == Fraction(3, 100)
        and scen_heavy["p_exact"] == Fraction(42, 100)
        and scen_sharp["significant"] is True
        and scen_heavy["significant"] is False
    )
    report(
        "criterion-03",
        ok,
        f"p = {p_sharp.p} vs {p_heavy.p}, shared point prob {p_sharp.point_prob}",
    )


def test_c04_ratio_crossing_bound():
    started = time.perf_counter()
    details = []
    ok = True
    for s in (8, 16):
        rep = run_suite_scenario(f"c04-ratio-crossing-s{s}")
        est = rep.rates["crossing_rate"]
        bound = 1.0 / s
        ok = ok and est.value <= bound + 3 * est.se
        details.append(f"s={s}: {est.value:.4f} <= {bound:.4f}+3*{est.se:.4f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report("criterion-04", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_c05_evidence_rate_matches_divergence():
    started = time.perf_counter()
    rep = run_suite_scenario("c05-evidence-rate")
    est = rep.rates["mean_log_lr_per_n"]
    target = float(kl(bernoulli(Fraction(1, 4)), bernoulli(Fraction(1, 2))))
    elapsed = time.perf_counter() - started
    ok = abs(est.value - target) <= 4 * est.se and elapsed < 60.0
    report(
        "criterion-05",
        ok,
        f"mean {est.value:.5f} vs divergence {target:.5f} (4SE={4 * est.se:.5f}), "
        f"{elapsed:.1f}s",
    )


def test_c06_identity_on_randomized_triples():
    rng = random.Random(20260806)
    worst = 0.0
    ok = True
    for _ in range(1000):
        k = rng.randint(2, 6)
        if rng.random() < 0.5:
            h = random_float_dist(rng, k)
            kd = random_float_dist(rng, k)
        else:
            h = random_rational_dist(rng, k)
            kd = random_rational_dist(rng, k)
        xs = [rng.choice(h.alphabet) for _ in range(rng.randint(1, 60))]
        lhs, rhs = loglr_kl_identity_check(h, kd, xs)
        err = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, err)
        ok = ok and err <= 1e-9
    report("criterion-06", ok, f"1000 triples, worst relative gap {worst:.2e}")


def _weighted_probs(dist, priors_part, seqs):
    """Exact integer weights priors_part * P(seq) over a common denominator."""
    weights = []
    for seq in seqs:
        p = math.prod((dist.probs[i] for i in seq), start=Fraction(1)) * priors_part
        weights.append(p)
    denom = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (denom // w.denominator) for w in weights], denom


def test_c07_map_rule_beats_every_decision_rule():
    started = time.perf_counter()
    pairs = {
        2: [
            (bernoulli(Fraction(1, 2)), bernoulli(Fraction(1, 4))),
            (bernoulli(Fraction(2, 3)), bernoulli(Fraction(1, 5))),
        ],
        3: [
            (
                FiniteDistribution(("a", "b", "c"), (Fraction(1, 6), Fraction(2, 6), Fraction(3, 6))),
                FiniteDistribution(("a", "b", "c"), (Fraction(3, 6), Fraction(2, 6), Fraction(1, 6))),
            )
        ],
        4: [
            (
                FiniteDistribution(tuple("abcd"), tuple(Fraction(w, 10) for w in (1, 2, 3, 4))),
                FiniteDistribution(tuple("abcd"), tuple(Fraction(w, 10) for w in (4, 3, 2, 1))),
            )
        ],
    }
    priors_grid = [Priors(Fraction(1, 2)), Priors(Fraction(1, 10)), Priors(Fraction(3, 4))]
    checked = 0
    ok = True
    for k, pair_list in pairs.items():
        lengths = [n for n in range(1, 5) if k**n <= 16]
        for (h, kd), n, priors in itertools.product(pair_list, lengths, priors_grid):
            seqs = list(itertools.product(range(k), repeat=n))
            # integer weights pi_h * P_H and pi_k * P_K on one denominator
            wh_frac = [
                math.prod((h.probs[i] for i in seq), start=Fraction(1)) * priors.pi_h
                for seq in seqs
            ]
            wk_frac = [
                math.prod((kd.probs[i] for i in seq), start=Fraction(1)) * priors.pi_k
                for seq in seqs
            ]
            denom = math.lcm(*(w.denominator for w in wh_frac + wk_frac))
            wh = [w.numerator * (denom // w.denominator) for w in wh_frac]
            wk = [w.numerator * (denom // w.denominator) for w in wk_frac]
            deltas = [a - b for a, b in zip(wh, wk)]
            base = sum(wk)  # decide H everywhere

            # the library's MAP rule, sequence by sequence
            map_mask = 0
            for j, seq in enumerate(seqs):
                labels = [h.alphabet[i] for i in seq]
                if map_decide(h, kd, priors, labels) == "K":
                    map_mask |= 1 << j
            map_err = base + sum(d for j, d in enumerate(deltas) if map_mask >> j & 1)

            # exhaustive minimum over all 2**(k**n) deterministic rules,
            # walked in Gray-code order so each step flips one sequence
            err = base
            best = err
            mask = 0
            for m in range(1, 1 << len(seqs)):
                j = (m & -m).bit_length() - 1
                mask ^= 1 << j
                err = err + deltas[j] if mask >> j & 1 else err - deltas[j]
                if err < best:
                    best = err
            checked += 1
            ok = ok and best == map_err
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    report(
        "criterion-07",
        ok,
        f"{checked} (pair, n, priors) combos, MAP error equals the exhaustive "
        f"minimum exactly, {elapsed:.1f}s",
    )


def test_c08_threshold_and_margin_verdicts_agree_everywhere():
    rng = random.Random(20260808)
    thresholds = [1, 2, 8, 16, Fraction(3, 2), Fraction(19, 7), 4.0]
    cases = 0
    ok = True
    for i in range(100_000):
        k = rng.randint(2, 3)
        h = random_rational_dist(rng, k, max_weight=9)
        kd = random_rational_dist(rng, k, max_weight=9)
        xs = [rng.choice(h.alphabet) for _ in range(rng.randint(1, 10))]
        ev = evidence_from_sample(h, kd, xs)
        if i % 50 == 0:
            # exact boundary: the threshold equals the achieved ratio
            s = ev.exact_ratio if ev.exact_ratio >= 1 else 1 / ev.exact_ratio
        else:
            s = thresholds[rng.randrange(len(thresholds))]
        lr_accepts = threshold_verdict(ev, s) is Verdict.ACCEPT_K
        margin_accepts = (
            lr_threshold_as_kl_margin(h, kd, xs, s).verdict is Verdict.ACCEPT_K
        )
        ok = ok and lr_accepts == margin_accepts
        cases += 1
        if not ok:
            break
    report("criterion-08", ok, f"{cases} randomized cases agree exactly")


def test_c09_total_error_shrinks_and_matches_simulation():
    pair = GaussianPair(0.0, 0.5, 1.0)
    totals = [midpoint_rule(pair, n)[1].total for n in range(1, 101)]
    strictly_decreasing = all(a > b for a, b in zip(totals, totals[1:]))
    ok = strictly_decreasing
    details = [f"total error strictly decreasing over n=1..100: {strictly_decreasing}"]
    for n in (1, 16):
        analytic = gaussian_cdf(-0.5 * math.sqrt(n) / 2.0)
        for truth in ("null", "alt"):
            rep = run_suite_scenario(f"c09-midpoint-n{n}-{truth}")
            est = rep.rates["error_rate"]
            ok = ok and abs(est.value - analytic) <= 3 * est.se
            details.append(
                f"n={n} {truth}: {est.value:.4f} vs {analytic:.4f} (3SE={3 * est.se:.4f})"
            )
    report("criterion-09", ok, "; ".join(details))


def test_c10_power_solver_round_trips():
    solved = solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=0.5))
    ok = solved.n == 25
    details = [f"n = {solved.n}"]
    # a quadruple satisfying the relation exactly at the ceiled n
    eta_at_25 = solve_power(PowerSpec(alpha=0.05, beta=0.2, n=25)).eta
    re_n = solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=eta_at_25)).n
    re_alpha = solve_power(PowerSpec(beta=0.2, eta=eta_at_25, n=25)).alpha
    re_beta = solve_power(PowerSpec(alpha=0.05, eta=eta_at_25, n=25)).beta
    re_eta = solve_power(PowerSpec(alpha=0.05, beta=0.2, n=25)).eta
    ok = ok and re_n == 25
    ok = ok and abs(re_alpha - 0.05) <= 1e-6
    ok = ok and abs(re_beta - 0.2) <= 1e-6
    ok = ok and abs(re_eta - eta_at_25) <= 1e-6
    details.append(
        f"re-solved (n, alpha, beta, eta) = ({re_n}, {re_alpha:.6f}, "
        f"{re_beta:.6f}, {re_eta:.6f})"
    )
    report("criterion-10", ok, "; ".join(details))


def test_c11_universal_test_level_and_power():
    started = time.perf_counter()
    ok = True
    details = []
    for k in (2, 4, 8):
        for n in (100, 1000):
            rep = run_suite_scenario(f"c11-universal-null-k{k}-n{n}")
            est = rep.rates["reject_rate"]
            ok = ok and est.value <= 0.05 + 3 * est.se
            details.append(f"k={k},n={n}: {est.value:.4f}")
    power_rep = run_suite_scenario("c11-universal-power")
    power = power_rep.rates["reject_rate"].value
    divergence = float(kl(bernoulli(Fraction(3, 4)), bernoulli(Fraction(1, 2))))
    ok = ok and divergence >= 0.1 and power > 0.99
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    report(
        "criterion-11",
        ok,
        f"type-I rates [{', '.join(details)}] all <= 0.05+3SE; power {power:.4f} "
        f"against divergence {divergence:.3f}, {elapsed:.1f}s",
    )


def chi2_upper_quantile(df: int, p: float) -> float:
    """x with P(chi2_df > x) = p, by mpmath."""
    with mpmath.workdps(30):
        return float(mpmath.findroot(
            lambda x: mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True) - p,
            df + 3,
        ))


def test_c11_universal_test_level_is_tight_under_the_wilks_radius():
    # Wilks: 2n D(emp || h) -> chi2_{k-1} under H (Hoeffding 1965), so the
    # radius chi2_{k-1,1-delta} / (2n) rejects at rate ~delta, not ~0 as
    # the types bound does; a radius 10x too large then visibly fails
    delta, n, reps = 0.05, 1000, 2000
    se = math.sqrt(delta * (1 - delta) / reps)
    ok = True
    details = []
    for k in (2, 4):
        h = FiniteDistribution.uniform("abcd"[:k])
        chi2 = chi2_upper_quantile(k - 1, delta)
        samples = [sample(h, n, Seed(1111 + k, i)) for i in range(reps)]

        def rate(scale):
            cfg = UniversalTestConfig(delta, radius_rule=lambda m: scale * chi2 / (2 * m))
            decisions = [hoeffding_test(h, xs, cfg).decision for xs in samples]
            return decisions.count(UniversalDecision.REJECT_H) / reps

        level, wide_level = rate(1), rate(10)
        ok = ok and abs(level - delta) <= 4 * se and wide_level < delta - 4 * se
        details.append(f"k={k}: {level:.4f} (radius x10: {wide_level:.4f})")
    report(
        "criterion-11",
        ok,
        f"Wilks-radius type-I rates [{', '.join(details)}] within 4SE "
        f"= {4 * se:.4f} of {delta}, x10 radius below it",
    )


def test_c12_optional_stopping_inflates_alpha_but_not_the_ratio_monitor():
    rep = run_suite_scenario("c12-optional-stopping")
    looks = [int(part) for part in rep.values["looks"].split()]
    cum = [rep.rates[f"cumulative_reject@{n}"] for n in looks]
    lr = [rep.rates[f"lr_crossed@{n}"] for n in looks]
    monotone = all(
        a.value <= b.value for a, b in zip(cum, cum[1:])
    )
    inflated_by_second = cum[1].value > 0.05 + 3 * cum[1].se
    monitor_safe = all(est.value <= 0.05 + 3 * est.se for est in lr)
    ok = monotone and inflated_by_second and monitor_safe
    report(
        "criterion-12",
        ok,
        f"cumulative {[round(e.value, 4) for e in cum]} (inflated by look 2: "
        f"{inflated_by_second}); ratio monitor {[round(e.value, 4) for e in lr]} "
        f"stays within 0.05+3SE: {monitor_safe}",
    )


def test_c13_super_uniformity_exhaustive():
    rng = random.Random(20260813)
    ok = True
    for _ in range(100):
        d = random_rational_dist(rng, rng.randint(2, 20), allow_zero=True)
        ok = ok and super_uniformity_holds(d, TailDirection.GREATER_EQUAL)
        ok = ok and super_uniformity_holds(d, TailDirection.LESS_EQUAL)
    report(
        "criterion-13",
        ok,
        "100 randomized distributions (k <= 20), both one-sided directions, "
        "checked by exact summation",
    )
