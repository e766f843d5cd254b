import fractions
import math
import operator
import random
import string
import types
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings
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
    evidential,
    grade,
    kl,
    posterior_odds,
    posterior_prob_k,
    robbins_violation_probability,
    threshold_verdict,
    update,
    update_gaussian,
)
from testlab.dist import log_probability
from testlab.errors import ImpossibleObservationError, InputError
from testlab.evidential import log_ratio_table

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
    with pytest.raises(ImpossibleObservationError, match="symbol 'c'"):
        update(LogEvidence(), h, k, "c")


def test_jointly_impossible_sequence_rejected():
    h = FiniteDistribution(("a", "b", "c"), (Fraction(1), 0, 0))
    k = FiniteDistribution(("a", "b", "c"), (0, Fraction(1), 0))
    ev = update(LogEvidence(), h, k, "b")  # falsifies H
    with pytest.raises(ImpossibleObservationError):
        update(ev, h, k, "a")  # would falsify K as well


@pytest.mark.parametrize("exact", [True, False])
def test_log_ratio_table_cells(exact):
    # a: zero mass under both, b: under H only, c: under K only, d: shared
    h = FiniteDistribution(tuple("abcd"), (0, 0, Fraction(1, 3), Fraction(2, 3)))
    k = FiniteDistribution(tuple("abcd"), (0, Fraction(1, 4), 0, Fraction(3, 4)))
    if not exact:
        h, k = _as_float(h), _as_float(k)
    for d in (h, k):
        assert d.log_probs == tuple(log_probability(p) for p in d.probs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = log_ratio_table(h, k)
    assert table.dtype == np.float64
    assert math.isnan(table[0])
    shared = log_probability(k.probs[3]) - log_probability(h.probs[3])
    assert table[1:].tolist() == [math.inf, -math.inf, shared]


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
# a sample that falsifies H and then K, which random draws reach only at times
@example((FiniteDistribution(("a", "b"), (0, Fraction(1))),
          FiniteDistribution(("a", "b"), (Fraction(1), 0)), ["a", "b"]))
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


# --- long samples: the exact ratio built in lowest terms --------------------------

_LARGE_PRIMES = (2**31 - 1, 10**9 + 7, 998_244_353, 2**61 - 1, 2**89 - 1)
_ORACLE_BITS = 60_000  # unreduced product size at which a case's counts stop


@st.composite
def _long_folds(draw):
    """Two rational hypotheses over 2-8 symbols and up to 5 000 counts of
    each symbol, so that both routes of the exact fold run. Weights are
    products of small integers and large primes; K may permute H's weights,
    so that per-symbol ratios such as 2/3 and 3/2 share their factors; one
    side may give a symbol zero mass. Counts stop where the unreduced
    product would pass _ORACLE_BITS, which keeps the Fraction oracle quick."""
    k = draw(st.integers(2, 8))
    labels = tuple(string.ascii_lowercase[:k])
    factor = st.one_of(st.integers(1, 12), st.sampled_from(_LARGE_PRIMES))
    weights = st.lists(st.builds(operator.mul, factor, factor), min_size=k, max_size=k)
    hw = draw(weights)
    kw = draw(st.one_of(weights, st.permutations(hw)))
    zero = draw(st.sampled_from((None,) * 6 + (hw, kw)))
    if zero is not None:
        zero[draw(st.integers(0, k - 1))] = 0
    h, kd = (FiniteDistribution(labels, tuple(Fraction(w, sum(ws)) for w in ws))
             for ws in (hw, kw))
    per_count = [sum(v.bit_length() for v in (p.numerator, p.denominator, q.numerator,
                                               q.denominator)) for p, q in zip(h.probs, kd.probs)]
    top = draw(st.sampled_from((3, min(5000, _ORACLE_BITS // sum(per_count)))))
    counts = draw(st.lists(st.sampled_from(range(top + 1)), min_size=k, max_size=k))
    return h, kd, counts


def _oracle(h, k, counts):
    """(falsified, exact ratio) by the rules of the fold: a product of
    Fraction powers, or the side that a counted zero mass falsifies; raises
    as the fold must."""
    seen = [(p, q) for p, q, c in zip(h.probs, k.probs, counts) if c]
    zero_h, zero_k = (any(p == 0 for p in side) for side in zip(*seen))
    if zero_h and zero_k:
        return "both", None
    if zero_h or zero_k:
        return ("H" if zero_h else "K"), None
    ratio = Fraction(1)
    for p, q, c in zip(h.probs, k.probs, counts):
        if c:
            ratio *= (q / p) ** c
    return None, ratio


def _folds_to_oracle(h, k, counts):
    if not any(counts):
        return
    falsified, ratio = _oracle(h, k, counts)
    if falsified == "both":
        with pytest.raises(ImpossibleObservationError):
            evidence_from_counts(h, k, counts, sum(counts))
        return
    ev = evidence_from_counts(h, k, counts, sum(counts))
    assert (ev.falsified, ev.n) == (falsified, sum(counts))
    if falsified:
        assert ev.exact_ratio is None
        assert ev.sum_log_lr == (math.inf if falsified == "H" else -math.inf)
        return
    assert type(ev.exact_ratio) is Fraction
    assert (ev.exact_ratio.numerator, ev.exact_ratio.denominator) == (
        ratio.numerator, ratio.denominator)
    assert ev.sum_log_lr == math.log(ratio.numerator) - math.log(ratio.denominator)


@given(_long_folds())
@settings(max_examples=150, deadline=None)
def test_long_sample_ratio_equals_the_fraction_product(case):
    _folds_to_oracle(*case)


def _route(case):
    """The exact fold's route for a case: "short" below _MANY_COUNTS,
    "lowest-terms" or "declined" by the size check, or None when a zero
    mass ends the fold first."""
    h, k, counts = case
    seen = [(i, c) for i, c in enumerate(counts) if c]
    if not seen or any(h.probs[i] == 0 or k.probs[i] == 0 for i, _ in seen):
        return None
    if sum(counts) < evidential._MANY_COUNTS:
        return "short"
    return "declined" if evidential._long_ratio(h, k, seen) is None else "lowest-terms"


@pytest.mark.parametrize("route", ["short", "declined", "lowest-terms"])
def test_long_sample_cases_reach_each_route(route):
    case = find(_long_folds(), lambda case: _route(case) == route,
                settings=settings(database=None, max_examples=500, derandomize=True,
                                  phases=[Phase.generate]))
    _folds_to_oracle(*case)


def test_wide_masses_need_more_bits_per_symbol_for_the_lowest_terms_route():
    # about 1 470 bits per symbol each: 9-bit per-symbol products are built
    # in lowest terms, 64-bit ones are declined until about 2 000 bits
    def weights(ws):
        return FiniteDistribution(tuple("abcdefgh"), tuple(Fraction(w, sum(ws)) for w in ws))

    narrow = weights(range(1, 9)), weights(range(9, 17))
    wide = weights([2**30 + 3 * i for i in range(8)]), weights([2**30 - 5 * i for i in range(8)])
    for (h, k), c, route in ((narrow, 110, "lowest-terms"), (wide, 12, "declined"),
                             (wide, 24, "lowest-terms")):
        assert _route((h, k, (c,) * 8)) == route
        _folds_to_oracle(h, k, (c,) * 8)


def test_update_folds_onto_a_lowest_terms_ratio():
    # P_K/P_H is (1/4)/(1/6) = 3/2 for a, 3/4 for b and 1 for c: the 6 above
    # the line and the 4 below it share a factor 2 whose exponent is neither
    # of theirs
    h = FiniteDistribution(tuple("abc"), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    k = FiniteDistribution(tuple("abc"), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
    ev = evidence_from_counts(h, k, (3000, 1000, 500), 4500)
    assert _route((h, k, (3000, 1000, 500))) == "lowest-terms"
    for x in "abca":
        ev = update(ev, h, k, x)
    expected = Fraction(3, 2) ** 3002 * Fraction(3, 4) ** 1001
    assert (ev.exact_ratio.numerator, ev.exact_ratio.denominator) == (
        expected.numerator, expected.denominator)
    assert ev.sum_log_lr == math.log(expected.numerator) - math.log(expected.denominator)
    assert ev == evidence_from_counts(h, k, (3002, 1001, 501), 4504)


def test_lowest_terms_fraction_is_fraction_p_q(monkeypatch):
    p, q = 3**400 * 5**7, 2**900 * 7**3
    slow = Fraction(p, q)

    def no_gcd(*args):
        raise AssertionError("gcd called")

    # Fraction copies a numbers.Rational's fields; it takes no gcd of them
    monkeypatch.setattr(fractions, "math", types.SimpleNamespace(gcd=no_gcd))
    fast = Fraction(evidential._LowestTerms(p, q))
    monkeypatch.undo()
    assert type(fast) is Fraction
    assert fast == slow and hash(fast) == hash(slow)
    assert (fast.numerator, fast.denominator) == (slow.numerator, slow.denominator) == (p, q)
    assert fast * Fraction(q, p) == 1


def test_evidence_from_counts_validates_counts():
    with pytest.raises(InputError):
        evidence_from_counts(H_FAIR, K_QUARTER, (1, 1), 3)
    with pytest.raises(InputError):
        evidence_from_counts(H_FAIR, K_QUARTER, (2,), 2)
    with pytest.raises(InputError):
        evidence_from_counts(H_FAIR, K_QUARTER, (3, -1), 2)
    assert evidence_from_counts(H_FAIR, K_QUARTER, (2, 1), 3).exact_ratio == Fraction(3, 8)
    # counts are exponents of the exact ratio, so only integers are counts,
    # with exact and with float hypotheses alike
    k = bernoulli(Fraction(3, 4))
    for h, counts, n, shown in (
        (H_FAIR, (1.5, 0.5), 2, "(1.5, 0.5) and 2"),
        (_as_float(H_FAIR), (1.5, 0.5), 2, "(1.5, 0.5) and 2"),
        (_as_float(H_FAIR), (1, 1), 2.0, "(1, 1) and 2.0"),
        (H_FAIR, [Fraction(1), 1], 2, "(Fraction(1, 1), 1) and 2"),
    ):
        with pytest.raises(InputError) as caught:
            evidence_from_counts(h, k, counts, n)
        assert str(caught.value) == f"counts and n must be integers, got {shown}"
    # integer types other than int are counts
    ev = evidence_from_counts(H_FAIR, k, np.array([2, 1]), np.int64(3))
    assert (ev.n, ev.exact_ratio) == (3, Fraction(9, 8))
    assert type(ev.n) is int


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
    for r in (Fraction(7), Fraction(1, 7)):
        ev = LogEvidence(math.log(r), 3, None, r)
        assert threshold_verdict(ev, 8) is Verdict.CONTINUE


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


def test_posterior_prob_k_beyond_the_double_range_of_the_odds():
    # exp(-log odds) overflows once the log odds fall below about -709
    priors = Priors(0.3)
    assert posterior_prob_k(LogEvidence(-1000.0, 5, None, None), priors) == 0.0
    assert posterior_prob_k(LogEvidence(-math.inf, 5, "K", None), priors) == 0.0
    assert posterior_prob_k(LogEvidence(math.inf, 5, "H", None), priors) == 1.0
    finite = posterior_prob_k(LogEvidence(-2.5, 5, None, None), priors)
    assert finite == 1.0 / (1.0 + math.exp(-(-2.5 + priors.log_odds)))


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


def test_priors_sum_past_4300_digits_is_an_input_error():
    # str() of its 5 000-digit denominator would raise a bare ValueError
    with pytest.raises(InputError, match=r"priors sum to 1000\d{4990}"):
        Priors(Fraction(1, 10**5000), Fraction(1, 3))


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
