import math
import random
import string
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testlab import (
    FiniteDistribution,
    GaussianPair,
    GradeStrength,
    LogEvidence,
    Priors,
    Seed,
    Verdict,
    empirical,
    evidence_from_counts,
    evidence_from_sample,
    grade,
    kl,
    posterior_odds,
    posterior_prob_k,
    robbins_violation_probability,
    threshold_verdict,
    update,
    update_gaussian,
)
from testlab.errors import ImpossibleObservationError, InputError

from helpers import bernoulli, random_float_dist, random_rational_dist

H_FAIR = bernoulli(Fraction(1, 2))
K_QUARTER = bernoulli(Fraction(1, 4))


# --- updates -------------------------------------------------------------------


def test_identical_hypotheses_stay_neutral():
    ev = evidence_from_sample(H_FAIR, H_FAIR, ["a", "b", "a", "a"])
    assert ev.sum_log_lr == 0.0
    assert ev.exact_ratio == 1


def test_hand_computed_three_observations():
    ev = evidence_from_sample(H_FAIR, K_QUARTER, ["a", "a", "b"])
    # (1/4 / 1/2) * (1/4 / 1/2) * (3/4 / 1/2)
    assert ev.exact_ratio == Fraction(3, 8)
    assert ev.sum_log_lr == pytest.approx(math.log(0.375), abs=1e-12)
    assert ev.n == 3


def test_support_exclusion_falsifies_h():
    h = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    k = bernoulli(Fraction(1, 2))
    ev = update(LogEvidence(), h, k, "b")
    assert ev.falsified == "H"
    assert ev.sum_log_lr == math.inf
    # further ordinary evidence cannot un-falsify
    ev = update(ev, h, k, "a")
    assert ev.sum_log_lr == math.inf
    assert ev.n == 2


def test_both_zero_probability_observation_rejected():
    h = FiniteDistribution(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 2), 0))
    k = FiniteDistribution(("a", "b", "c"), (Fraction(1, 4), Fraction(3, 4), 0))
    with pytest.raises(ImpossibleObservationError):
        update(LogEvidence(), h, k, "c")


def test_jointly_impossible_sequence_rejected():
    h = FiniteDistribution(("a", "b", "c"), (Fraction(1), 0, 0))
    k = FiniteDistribution(("a", "b", "c"), (0, Fraction(1), 0))
    ev = update(LogEvidence(), h, k, "b")  # falsifies H
    with pytest.raises(ImpossibleObservationError):
        update(ev, h, k, "a")  # would falsify K as well


def test_batch_permutation_invariance_exact():
    rng = random.Random(17)
    h = random_rational_dist(rng, 5)
    k = random_rational_dist(rng, 5)
    xs = [rng.choice(h.alphabet) for _ in range(60)]
    shuffled = xs[:]
    rng.shuffle(shuffled)
    assert (
        evidence_from_sample(h, k, xs).exact_ratio
        == evidence_from_sample(h, k, shuffled).exact_ratio
    )
    assert (
        evidence_from_sample(h, k, xs).sum_log_lr
        == evidence_from_sample(h, k, shuffled).sum_log_lr
    )


def test_batch_permutation_invariance_float():
    rng = random.Random(18)
    h = random_float_dist(rng, 5)
    k = random_float_dist(rng, 5)
    xs = [rng.choice(h.alphabet) for _ in range(200)]
    shuffled = xs[:]
    rng.shuffle(shuffled)
    a = evidence_from_sample(h, k, xs).sum_log_lr
    b = evidence_from_sample(h, k, shuffled).sum_log_lr
    assert a == pytest.approx(b, abs=1e-9)


def test_swapping_hypotheses_negates_log_evidence():
    rng = random.Random(19)
    h = random_rational_dist(rng, 4)
    k = random_rational_dist(rng, 4)
    xs = [rng.choice(h.alphabet) for _ in range(30)]
    forward = evidence_from_sample(h, k, xs)
    backward = evidence_from_sample(k, h, xs)
    assert forward.exact_ratio == 1 / backward.exact_ratio
    assert forward.sum_log_lr == -backward.sum_log_lr


# --- batch evidence from counts vs the streaming fold ------------------------------


@st.composite
def _hypotheses_and_sample(draw):
    """Two rational hypotheses over 2-5 symbols, zero masses allowed, and a
    sample of up to 60 symbols that may include zero-mass ones."""
    k = draw(st.integers(min_value=2, max_value=5))
    labels = tuple(string.ascii_lowercase[:k])

    def dist():
        weights = draw(
            st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any)
        )
        total = sum(weights)
        return FiniteDistribution(labels, tuple(Fraction(w, total) for w in weights))

    h, kd = dist(), dist()
    xs = draw(st.lists(st.sampled_from(labels), max_size=60))
    return h, kd, xs


def _fold(h, k, xs):
    return reduce(lambda ev, x: update(ev, h, k, x), xs, LogEvidence())


def _as_float(d):
    return FiniteDistribution(d.alphabet, tuple(float(p) for p in d.probs))


@given(_hypotheses_and_sample())
@settings(max_examples=300, deadline=None)
def test_counts_path_equals_streaming_fold_exact(case):
    h, k, xs = case
    try:
        folded = _fold(h, k, xs)
    except ImpossibleObservationError:
        with pytest.raises(ImpossibleObservationError):
            evidence_from_sample(h, k, xs)
        return
    batch = evidence_from_sample(h, k, xs)
    assert batch.exact_ratio == folded.exact_ratio
    assert batch.sum_log_lr == folded.sum_log_lr
    assert batch.falsified == folded.falsified
    assert batch.n == folded.n == len(xs)
    if xs:
        emp = empirical(xs, h.alphabet)
        for q in (h, k):
            assert kl(emp, q) == kl(emp.frequencies(), q)


@given(_hypotheses_and_sample())
@settings(max_examples=300, deadline=None)
def test_counts_path_matches_streaming_fold_float(case):
    h, k = (_as_float(d) for d in case[:2])
    xs = case[2]
    try:
        folded = _fold(h, k, xs)
    except ImpossibleObservationError:
        with pytest.raises(ImpossibleObservationError):
            evidence_from_sample(h, k, xs)
        return
    batch = evidence_from_sample(h, k, xs)
    assert batch.exact_ratio is None or not xs
    assert batch.falsified == folded.falsified
    assert batch.n == folded.n
    if folded.falsified is not None:
        assert batch.sum_log_lr == folded.sum_log_lr
    else:
        # relative to the magnitude summed: a near-cancelling total has no
        # relative accuracy to speak of in either summation order
        scale = sum(abs(h.log_prob(x) - k.log_prob(x)) for x in xs)
        assert abs(batch.sum_log_lr - folded.sum_log_lr) <= 1e-12 * scale


def test_evidence_from_counts_validates_counts():
    with pytest.raises(InputError):
        evidence_from_counts(H_FAIR, K_QUARTER, (1, 1), 3)
    with pytest.raises(InputError):
        evidence_from_counts(H_FAIR, K_QUARTER, (2,), 2)
    with pytest.raises(InputError):
        evidence_from_counts(H_FAIR, K_QUARTER, (3, -1), 2)
    assert evidence_from_counts(H_FAIR, K_QUARTER, (2, 1), 3).exact_ratio == Fraction(3, 8)


def test_ratio_overflows_to_infinity():
    ev = LogEvidence(sum_log_lr=1000.0, n=1, exact_ratio=None)
    assert ev.ratio == math.inf
    assert posterior_odds(ev, Priors(Fraction(1, 2))) == math.inf
    assert grade(ev.ratio).strength is GradeStrength.DECISIVE


def test_gaussian_update_uses_density_ratio():
    pair = GaussianPair(0.0, 1.0, 1.0)
    ev = update_gaussian(LogEvidence(), pair, 0.8)
    assert ev.sum_log_lr == pytest.approx(pair.log_density_ratio(0.8))
    assert ev.exact_ratio is None


# --- grading ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "r,strength,favors",
    [
        (0.05, GradeStrength.STRONG, "H"),
        (0.005, GradeStrength.DECISIVE, "H"),
        (0.2, GradeStrength.SUBSTANTIAL, "H"),
        (0.02, GradeStrength.VERY_STRONG, "H"),
        (0.5, GradeStrength.BARE_COMMENT, "H"),
        (1.0, GradeStrength.BARE_COMMENT, "K"),  # neutral boundary leans K
        (20.0, GradeStrength.STRONG, "K"),
        (math.inf, GradeStrength.DECISIVE, "K"),
        (0.0, GradeStrength.DECISIVE, "H"),
        # cutpoints grade to the stronger side
        (0.3, GradeStrength.SUBSTANTIAL, "H"),
        (0.1, GradeStrength.STRONG, "H"),
        (0.03, GradeStrength.VERY_STRONG, "H"),
        (0.01, GradeStrength.DECISIVE, "H"),
    ],
)
def test_grade_values(r, strength, favors):
    g = grade(r)
    assert g.strength is strength
    assert g.favors == favors


def test_grade_rejects_negative():
    with pytest.raises(InputError):
        grade(-0.1)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)))
@settings(max_examples=200)
def test_grade_mirror_symmetry(r):
    if r == 1:
        return
    low = grade(r)
    high = grade(1 / r)
    assert low.strength is high.strength
    assert {low.favors, high.favors} == {"H", "K"}


# --- threshold verdicts ------------------------------------------------------------


def test_threshold_verdict_basic():
    assert threshold_verdict(LogEvidence(math.log(20), 5, None, None), 16) is Verdict.ACCEPT_K
    assert threshold_verdict(LogEvidence(math.log(0.0625), 5, None, None), 16) is Verdict.ACCEPT_H
    assert threshold_verdict(LogEvidence(0.0, 5, None, None), 8) is Verdict.CONTINUE


def test_threshold_verdict_boundary_accepts_k_exactly():
    ev = LogEvidence(math.log(8.0), 3, None, Fraction(8))
    assert threshold_verdict(ev, 8) is Verdict.ACCEPT_K
    ev = LogEvidence(math.log(0.125), 3, None, Fraction(1, 8))
    assert threshold_verdict(ev, 8) is Verdict.ACCEPT_H


def test_threshold_verdict_validates_s():
    with pytest.raises(InputError):
        threshold_verdict(LogEvidence(), 0.5)
    with pytest.raises(InputError):
        threshold_verdict(LogEvidence(), math.inf)


def test_falsified_evidence_is_decisive():
    h = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    k = bernoulli(Fraction(1, 2))
    ev = update(LogEvidence(), h, k, "b")
    assert threshold_verdict(ev, 1000.0) is Verdict.ACCEPT_K


# --- posterior odds -----------------------------------------------------------------


def test_posterior_odds_neutral():
    ev = LogEvidence()
    priors = Priors(Fraction(1, 2))
    assert posterior_odds(ev, priors) == pytest.approx(1.0)
    assert posterior_prob_k(ev, priors) == pytest.approx(0.5)


def test_posterior_odds_reduce_to_ratio_for_flat_priors():
    ev = evidence_from_sample(H_FAIR, K_QUARTER, ["a", "a", "b"])
    # the prior term cancels exactly, not just approximately
    assert posterior_odds(ev, Priors(0.5)) == ev.ratio
    assert posterior_odds(ev, Priors(0.5)) == pytest.approx(0.375, abs=1e-12)


def test_posterior_with_falsified_h():
    h = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    ev = update(LogEvidence(), h, bernoulli(Fraction(1, 2)), "b")
    priors = Priors(0.9)
    assert posterior_odds(ev, priors) == math.inf
    assert posterior_prob_k(ev, priors) == 1.0


def test_posterior_odds_scale_with_priors():
    ev = evidence_from_sample(H_FAIR, K_QUARTER, ["b"])
    odds = posterior_odds(ev, Priors(Fraction(1, 4)))
    assert odds == pytest.approx(1.5 * 3.0, abs=1e-12)


def test_priors_validation():
    with pytest.raises(InputError):
        Priors(0.0)
    with pytest.raises(InputError):
        Priors(0.4, 0.4)
    assert Priors(Fraction(1, 3)).pi_k == Fraction(2, 3)


# --- the crossing bound ---------------------------------------------------------------


def test_identical_hypotheses_never_cross():
    est = robbins_violation_probability(
        H_FAIR, H_FAIR, s=2.0, horizon=500, reps=50, seed=Seed(1)
    )
    assert est.value == 0.0


def test_crossing_probability_bounded_by_reciprocal_threshold():
    k = bernoulli(Fraction(3, 4))
    est = robbins_violation_probability(
        H_FAIR, k, s=8.0, horizon=2000, reps=2000, seed=Seed(77)
    )
    assert est.value <= 1 / 8 + 3 * est.se
    tighter = robbins_violation_probability(
        H_FAIR, k, s=100.0, horizon=2000, reps=2000, seed=Seed(78)
    )
    assert tighter.value <= 1 / 100 + 3 * tighter.se


def test_crossing_estimate_reproducible():
    k = bernoulli(Fraction(3, 4))
    a = robbins_violation_probability(H_FAIR, k, 8.0, 200, 300, Seed(5))
    b = robbins_violation_probability(H_FAIR, k, 8.0, 200, 300, Seed(5))
    assert a == b


def test_likelihood_convergence_both_ways():
    # ln r_n drifts to -inf under H and +inf under K when the divergence
    # is bounded away from zero
    h, k = H_FAIR, K_QUARTER
    assert float(kl(k, h)) >= 0.1
    n, paths = 2000, 1000
    from testlab.evidential import log_ratio_table
    from testlab.dist import _finite_indices

    table = log_ratio_table(h, k)
    for truth, expect_small in ((h, True), (k, False)):
        finals = np.empty(paths)
        seed = Seed(31 if expect_small else 32)
        for i in range(paths):
            idx = _finite_indices(truth, n, seed.rng(i))
            finals[i] = table[idx].sum()
        median_ratio = math.exp(float(np.median(finals)))
        if expect_small:
            assert median_ratio < 0.01
        else:
            assert median_ratio > 100.0
