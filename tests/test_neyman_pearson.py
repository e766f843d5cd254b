import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from testlab import (
    GaussianPair,
    PowerSpec,
    adjust_alpha,
    gaussian_cdf,
    gaussian_quantile,
    midpoint_rule,
    np_test,
    solve_power,
)
from testlab.errors import (
    InputError,
    NoSolutionError,
    PowerSpecError,
    ZeroEffectError,
)

from helpers import random_rational_dist

UNIT_PAIR = GaussianPair(0.0, 1.0, 1.0)


def upper_z(p) -> mpmath.mpf:
    """z_{1-p} of the standard normal for the double p, by mpmath."""
    # 2p - 1 must keep p's digits next to -1
    with mpmath.workdps(40 - min(0, math.floor(math.log10(p)))):
        return -mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


def close(x, want, rel=1e-12) -> bool:
    return abs(x - float(want)) <= rel * abs(float(want))


# --- midpoint rule ------------------------------------------------------------


def test_midpoint_cutoff_and_errors_n1():
    rule, rates = midpoint_rule(UNIT_PAIR, 1)
    assert rule.cutoff == 0.5
    assert rates.alpha == pytest.approx(gaussian_cdf(-0.5), abs=1e-15)
    assert rates.alpha == pytest.approx(0.30853753872598694, abs=1e-12)
    assert rates.beta == rates.alpha
    assert rates.total == pytest.approx(2 * rates.alpha)


def test_midpoint_errors_n16():
    _, rates = midpoint_rule(UNIT_PAIR, 16)
    assert rates.alpha == pytest.approx(gaussian_cdf(-2.0), abs=1e-15)
    assert rates.alpha == pytest.approx(0.022750131948179195, abs=1e-12)


def test_quadrupling_n_doubles_the_z_scale():
    _, rates = midpoint_rule(UNIT_PAIR, 4)
    assert rates.alpha == pytest.approx(gaussian_cdf(-1.0), abs=1e-15)


def test_midpoint_total_error_strictly_decreasing():
    pair = GaussianPair(0.0, 0.5, 1.0)
    totals = [midpoint_rule(pair, n)[1].total for n in range(1, 101)]
    assert all(a > b for a, b in zip(totals, totals[1:]))


def test_midpoint_rejects_zero_effect():
    with pytest.raises(ZeroEffectError):
        midpoint_rule(GaussianPair(0.0, 0.0, 1.0), 10)


# --- fixed-alpha test -----------------------------------------------------------


def test_np_test_holds_alpha_exactly_and_minimises_beta_form():
    rule, rates = np_test(UNIT_PAIR, 16, 0.05)
    assert rates.alpha == 0.05
    assert rule.cutoff == pytest.approx(gaussian_quantile(0.95) / 4.0, abs=1e-12)
    assert rule.cutoff == pytest.approx(0.4112134067, abs=1e-9)
    assert 1 - rates.beta == pytest.approx(gaussian_cdf(4.0 - 1.6448536269514722), abs=1e-9)


def test_np_test_null_equals_alternative():
    pair = GaussianPair(0.0, 0.0, 1.0)
    _, rates = np_test(pair, 25, 0.05)
    assert rates.beta == pytest.approx(0.95, abs=1e-12)


def test_np_test_alpha_half_cuts_at_null_mean():
    rule, rates = np_test(UNIT_PAIR, 9, 0.5)
    assert rule.cutoff == pytest.approx(0.0, abs=1e-12)
    assert rates.beta == pytest.approx(gaussian_cdf(-3.0), abs=1e-12)


def test_np_test_embeds_midpoint_rule():
    for n in (1, 4, 25):
        mid_rule, mid_rates = midpoint_rule(UNIT_PAIR, n)
        np_rule, _ = np_test(UNIT_PAIR, n, mid_rates.alpha)
        assert np_rule.cutoff == pytest.approx(mid_rule.cutoff, abs=1e-9)


def test_np_test_beta_monotone_in_n_eta_alpha():
    betas_n = [np_test(UNIT_PAIR, n, 0.05)[1].beta for n in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(betas_n, betas_n[1:]))
    betas_eta = [
        np_test(GaussianPair(0.0, eta, 1.0), 9, 0.05)[1].beta
        for eta in (0.0, 0.25, 0.5, 1.0)
    ]
    assert all(a >= b for a, b in zip(betas_eta, betas_eta[1:]))
    betas_alpha = [np_test(UNIT_PAIR, 9, a)[1].beta for a in (0.01, 0.05, 0.2)]
    assert all(a >= b for a, b in zip(betas_alpha, betas_alpha[1:]))


def test_np_test_cutoff_for_alpha_where_one_minus_alpha_rounds_to_one():
    # 1 - 1e-17 == 1.0, so the cutoff must come from the lower quantile
    rule, rates = np_test(GaussianPair(0.0, 1.0, 1.0), 4, 1e-17)
    z = upper_z(1e-17)
    assert close(2.0 * rule.cutoff, z)
    assert close(rates.beta, mpmath.ncdf(z - 2))


@pytest.mark.parametrize("alpha", [1e-50, 1e-300])
def test_np_test_cutoff_for_alpha_below_phi_of_minus_13(alpha):
    # z_{1-alpha} lies beyond 13; n puts beta at a moderate rate
    z = upper_z(alpha)
    n = math.ceil(z + 3) ** 2
    rule, rates = np_test(UNIT_PAIR, n, alpha)
    assert close(rule.cutoff * math.sqrt(n), z)
    assert close(rates.beta, mpmath.ncdf(z - math.sqrt(n)))


def test_np_test_validates_alpha():
    with pytest.raises(InputError):
        np_test(UNIT_PAIR, 4, 0.0)


# --- the four-way solver -----------------------------------------------------------


def test_solve_n_medium_effect():
    solved = solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=0.5))
    assert solved.n == 25


def test_solve_eta_at_n100():
    solved = solve_power(PowerSpec(alpha=0.05, beta=0.2, n=100))
    assert solved.eta == pytest.approx(0.2486, abs=2e-4)


def test_solve_rejects_zero_effect_for_n():
    with pytest.raises(NoSolutionError):
        solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=0.0))


def test_solve_error_rate_far_in_the_tail():
    # beta = Phi(-(10 - z_0.95)) ~ 3.3e-17, where 1 - Phi(z) cancels to 0;
    # the alpha branch is its mirror image
    want = mpmath.ncdf(upper_z(0.05) - 10)
    assert close(solve_power(PowerSpec(alpha=0.05, eta=1.0, n=100)).beta, want)
    assert close(solve_power(PowerSpec(beta=0.05, eta=1.0, n=100)).alpha, want)


def test_solve_n_for_alpha_where_one_minus_alpha_rounds_to_one():
    solved = solve_power(PowerSpec(alpha=1e-17, beta=0.2, eta=1.0))
    assert solved.n == math.ceil((upper_z(1e-17) + upper_z(0.2)) ** 2) == 88


@pytest.mark.parametrize("alpha", [1e-50, 1e-300])
def test_solve_power_for_alpha_below_phi_of_minus_13(alpha):
    z, z_beta = upper_z(alpha), upper_z(0.2)
    n = solve_power(PowerSpec(alpha=alpha, beta=0.2, eta=1.0)).n
    assert n == math.ceil((z + z_beta) ** 2)
    eta = solve_power(PowerSpec(alpha=alpha, beta=0.2, n=n)).eta
    assert close(eta, (z + z_beta) / math.sqrt(n))
    beta = solve_power(PowerSpec(alpha=alpha, eta=1.0, n=n)).beta
    assert close(beta, mpmath.ncdf(z - math.sqrt(n)))


def test_solve_requires_exactly_one_unknown():
    with pytest.raises(PowerSpecError):
        PowerSpec(alpha=0.05)  # two unknowns besides
    with pytest.raises(PowerSpecError):
        solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=0.5, n=25))


def test_powerspec_field_ranges():
    with pytest.raises(PowerSpecError):
        PowerSpec(alpha=0.6, beta=0.2, eta=0.5)
    with pytest.raises(PowerSpecError):
        PowerSpec(alpha=0.05, beta=0.2, eta=-1.0)
    with pytest.raises(PowerSpecError):
        PowerSpec(alpha=0.05, beta=0.2, n=0)


@pytest.mark.parametrize(
    "fields",
    [dict(eta=math.nan), dict(eta=0.5, sigma=math.inf), dict(n=25, sigma=math.inf)],
)
def test_powerspec_rejects_nan_eta_and_infinite_sigma(fields):
    with pytest.raises(PowerSpecError):
        PowerSpec(alpha=0.05, beta=0.2, **fields)


@pytest.mark.parametrize("eta, sigma", [(1e-300, 1.0), (5e-324, 1.0), (1e-150, 1e10)])
def test_solve_n_beyond_the_float_range_has_no_solution(eta, sigma):
    with pytest.raises(NoSolutionError, match="float range"):
        solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=eta, sigma=sigma))


def test_solve_n_just_inside_the_float_range():
    solved = solve_power(PowerSpec(alpha=0.05, beta=0.2, eta=1e-150))
    z_sum = -gaussian_quantile(0.05) - gaussian_quantile(0.2)
    assert solved.n == pytest.approx((z_sum / 1e-150) ** 2, rel=1e-12)


def test_round_trip_consistency_on_grid():
    # build exactly-consistent quadruples by solving eta, then drop and
    # re-solve every coordinate
    for alpha, beta, n in itertools.product(
        (0.01, 0.05, 0.2), (0.1, 0.2, 0.5), (4, 25, 400)
    ):
        base = solve_power(PowerSpec(alpha=alpha, beta=beta, n=n))
        eta = base.eta
        resolved_n = solve_power(PowerSpec(alpha=alpha, beta=beta, eta=eta))
        assert resolved_n.n == n
        resolved_alpha = solve_power(PowerSpec(beta=beta, eta=eta, n=n))
        assert resolved_alpha.alpha == pytest.approx(alpha, abs=1e-6)
        resolved_beta = solve_power(PowerSpec(alpha=alpha, eta=eta, n=n))
        assert resolved_beta.beta == pytest.approx(beta, abs=1e-6)
        resolved_eta = solve_power(PowerSpec(alpha=alpha, beta=beta, n=n))
        assert resolved_eta.eta == pytest.approx(eta, abs=1e-6)


# --- alpha adjustment ----------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,m,scheme,expected",
    [
        (0.05, 1, "bonferroni", 0.05),
        (0.05, 1, "sidak", 0.05),
        (0.05, 5, "bonferroni", 0.01),
        (0.05, 5, "sidak", 1 - 0.95 ** 0.2),
    ],
)
def test_adjust_alpha(alpha, m, scheme, expected):
    assert adjust_alpha(alpha, m, scheme) == pytest.approx(expected, abs=1e-12)


def test_sidak_value_matches_closed_form():
    assert adjust_alpha(0.05, 5, "sidak") == pytest.approx(0.010206, abs=1e-6)


def test_adjust_alpha_validation():
    with pytest.raises(InputError):
        adjust_alpha(0.0, 3)
    with pytest.raises(InputError):
        adjust_alpha(0.05, 0)
    with pytest.raises(InputError):
        adjust_alpha(0.05, 3, "holm")


# --- likelihood-ratio threshold rules form an undominated family ----------------------


def _exhaustive_rates(h, k, n, reject):
    """Exact (alpha, beta) of a rule given as the set of rejected sequences."""
    alpha = Fraction(0)
    beta = Fraction(0)
    for seq in itertools.product(range(h.size), repeat=n):
        ph = math.prod((h.probs[i] for i in seq), start=Fraction(1))
        pk = math.prod((k.probs[i] for i in seq), start=Fraction(1))
        if seq in reject:
            alpha += ph
        else:
            beta += pk
    return alpha, beta


def test_threshold_rules_are_undominated():
    rng = random.Random(8)
    for k_size, n in ((2, 4), (3, 3), (4, 2)):
        h = random_rational_dist(rng, k_size)
        k = random_rational_dist(rng, k_size)
        seqs = list(itertools.product(range(k_size), repeat=n))
        ratios = {}
        for seq in seqs:
            ph = math.prod((h.probs[i] for i in seq), start=Fraction(1))
            pk = math.prod((k.probs[i] for i in seq), start=Fraction(1))
            ratios[seq] = pk / ph
        thresholds = sorted(set(ratios.values()))
        rules = []
        for t in thresholds:
            reject = {seq for seq in seqs if ratios[seq] >= t}
            rules.append(_exhaustive_rates(h, k, n, reject))
        rules.sort()
        # alpha increases along the family exactly as beta decreases: no
        # rule in the family improves on another in both coordinates
        for (a1, b1), (a2, b2) in zip(rules, rules[1:]):
            assert a1 <= a2 and b1 >= b2
