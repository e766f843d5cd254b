import itertools
import math
import random
import string
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from testlab import (
    EmpiricalDistribution,
    FiniteDistribution,
    Priors,
    Seed,
    UniversalDecision,
    UniversalTestConfig,
    Verdict,
    empirical,
    errors,
    evidence_from_counts,
    evidence_from_sample,
    evidence_rate,
    evidential,
    hoeffding_test,
    info_geometry,
    kl,
    loglr_kl_identity_check,
    lr_threshold_as_kl_margin,
    map_decide,
    sample,
    threshold_verdict,
    types_bound_radius,
)
from testlab.dist import log_probability
from testlab.errors import (
    AlphabetMismatchError,
    EmptySampleError,
    InfiniteDivergenceError,
    InputError,
)
from testlab.info_geometry import HoeffdingResult, KlMarginVerdict

from helpers import bernoulli, random_float_dist, random_rational_dist

H_FAIR = bernoulli(Fraction(1, 2))
K_QUARTER = bernoulli(Fraction(1, 4))


# --- divergence ------------------------------------------------------------------


def test_kl_of_identical_distributions_is_exactly_zero():
    assert float(kl(K_QUARTER, K_QUARTER)) == 0.0


def test_kl_hand_computed_two_term_sums():
    forward = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    backward = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert float(kl(H_FAIR, K_QUARTER)) == pytest.approx(forward, abs=1e-12)
    assert float(kl(K_QUARTER, H_FAIR)) == pytest.approx(backward, abs=1e-12)
    assert float(kl(H_FAIR, K_QUARTER)) == pytest.approx(0.14384, abs=1e-5)
    assert float(kl(K_QUARTER, H_FAIR)) == pytest.approx(0.13081, abs=1e-5)


def test_kl_is_asymmetric():
    assert float(kl(H_FAIR, K_QUARTER)) != float(kl(K_QUARTER, H_FAIR))


def test_kl_infinite_when_support_exceeds():
    narrow = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    assert kl(H_FAIR, narrow).is_infinite
    # the other direction is finite: zero cells in p drop out
    assert not kl(narrow, H_FAIR).is_infinite


def test_kl_of_empirical_counts():
    e = empirical(list("aab"), ("a", "b"))
    want = (2 / 3) * math.log((2 / 3) / 0.5) + (1 / 3) * math.log((1 / 3) / 0.5)
    assert float(kl(e, H_FAIR)) == pytest.approx(want, abs=1e-12)


def test_kl_rejects_empty_sample_and_mismatched_alphabets():
    with pytest.raises(EmptySampleError):
        kl(empirical([], ("a", "b")), H_FAIR)
    # an empty sample is reported before the alphabets are compared
    with pytest.raises(EmptySampleError):
        kl(empirical([], ("x", "y")), H_FAIR)
    with pytest.raises(AlphabetMismatchError):
        kl(H_FAIR, FiniteDistribution.uniform(("x", "y")))


def _reference_kl(p, q) -> float:
    """kl's sum as it was written on Fraction weights, kept as the oracle
    for bit-identical results."""
    if isinstance(p, EmpiricalDistribution):
        weights = [Fraction(c, p.n) for c in p.counts]
    else:
        weights = p.probs
    total = 0.0
    for w, qv in zip(weights, q.probs):
        if w == 0:
            continue
        if qv == 0:
            return math.inf
        total += float(w) * (log_probability(w) - log_probability(qv))
    if -1e-12 < total < 0.0:
        total = 0.0
    return total


def _grid_dist(rng, k, exact, zeros):
    weights = [rng.randint(0 if zeros else 1, 12) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    probs = [Fraction(w, total) if exact else w / total for w in weights]
    return FiniteDistribution(tuple(string.ascii_letters[:k]), tuple(probs))


def _grid_counts(rng, k):
    """Counts of a sample of 1-60, some of them scaled so that every count
    shares a factor with n."""
    counts = [0] * k
    for _ in range(rng.randint(1, 60)):
        counts[rng.randrange(k)] += 1
    scale = rng.choice((1, 1, 2, 3, 4))
    return tuple(scale * c for c in counts)


def test_kl_equals_the_fraction_formula_bit_for_bit():
    rng = random.Random(15)
    cases = unreduced_misses = 0
    for k, p_exact, q_exact, p_zeros, q_zeros in itertools.product(
        range(1, 9), (True, False), (True, False), (True, False), (True, False)
    ):
        for _ in range(25):
            q = _grid_dist(rng, k, q_exact, q_zeros)
            p = _grid_dist(rng, k, p_exact, p_zeros)
            counts = _grid_counts(rng, k)
            emp = EmpiricalDistribution(q.alphabet, counts, sum(counts))
            for a in (p, emp):
                got = kl(a, q).nats
                assert type(got) is float
                assert got == _reference_kl(a, q), (a, q)
                cases += 1
            unreduced_misses += any(
                math.log(c) - math.log(emp.n) != log_probability(Fraction(c, emp.n))
                for c in counts if c
            )
    # the grid must reach counts whose unreduced log differs in the last bit
    assert cases == 6400 and unreduced_misses > 100
    # 2 of 6 is such a case; 2 of 4 is not
    assert math.log(2) - math.log(6) != math.log(1) - math.log(3)
    for counts in ((2, 4), (2, 2)):
        emp = EmpiricalDistribution(("a", "b"), counts, sum(counts))
        assert kl(emp, K_QUARTER).nats == _reference_kl(emp, K_QUARTER)


def test_kl_of_a_mass_whose_float_underflows_against_a_zero_cell_is_infinite():
    tiny = Fraction(1, 10**400)
    p = FiniteDistribution(("a", "b"), (tiny, 1 - tiny))
    q = FiniteDistribution(("a", "b"), (Fraction(0), Fraction(1)))
    assert float(tiny) == 0.0
    assert kl(p, q).is_infinite
    assert kl(p, q).nats == _reference_kl(p, q) == math.inf


def test_kl_reads_the_log_of_a_q_mass_whose_float_underflows():
    tiny = Fraction(1, 10**400)
    q = FiniteDistribution(("a", "b"), (tiny, 1 - tiny))
    got = kl(H_FAIR, q).nats
    assert math.isfinite(got) and got == _reference_kl(H_FAIR, q)
    assert got == pytest.approx(0.5 * 400 * math.log(10) - math.log(2), rel=1e-12)


def test_gibbs_inequality_on_grid():
    rng = random.Random(100)
    dists = [random_rational_dist(rng, 3) for _ in range(6)]
    for p, q in itertools.product(dists, repeat=2):
        d = float(kl(p, q))
        if p.probs == q.probs:
            assert d == 0.0
        else:
            assert d > 0.0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80)
def test_gibbs_inequality_randomized(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 8)
    p = random_float_dist(rng, k)
    q = random_float_dist(rng, k)
    d = float(kl(p, q))
    assert d >= 0.0
    tv = 0.5 * sum(abs(a - b) for a, b in zip(p.probs, q.probs))
    if tv > 1e-6:
        assert d > 0.0


def test_divergence_to_hypothesis_vanishes_with_data():
    # the reverse direction D(h || empirical) also vanishes: both stated
    # without a verdict, purely as statistics
    d = random_rational_dist(random.Random(2), 4)
    xs = sample(d, 10**5, Seed(61))
    freq = empirical(xs, d.alphabet).frequencies()
    assert float(kl(empirical(xs, d.alphabet), d)) < 1e-3
    assert float(kl(d, freq)) < 1e-3


# --- the log-LR / divergence identity -----------------------------------------------


def test_identity_empty_sample():
    assert loglr_kl_identity_check(H_FAIR, K_QUARTER, []) == (0.0, 0.0)


def test_identity_identical_hypotheses():
    lhs, rhs = loglr_kl_identity_check(H_FAIR, H_FAIR, list("abab"))
    assert lhs == rhs == 0.0


def test_identity_hand_computed():
    lhs, rhs = loglr_kl_identity_check(H_FAIR, K_QUARTER, list("aab"))
    assert lhs == pytest.approx(math.log(0.375), abs=1e-12)
    assert rhs == pytest.approx(lhs, abs=1e-9)


def test_identity_randomized_full_support():
    rng = random.Random(55)
    for _ in range(200):
        k = rng.randint(2, 6)
        h = random_rational_dist(rng, k)
        kd = random_rational_dist(rng, k)
        xs = [rng.choice(h.alphabet) for _ in range(rng.randint(1, 50))]
        lhs, rhs = loglr_kl_identity_check(h, kd, xs)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# --- MAP decisions ---------------------------------------------------------------


def test_map_equal_priors_follows_likelihood():
    assert map_decide(H_FAIR, K_QUARTER, Priors(0.5), list("bbbb")) == "K"
    assert map_decide(H_FAIR, K_QUARTER, Priors(0.5), list("aaaa")) == "H"


def test_map_prior_term_alone_on_empty_sample():
    assert map_decide(H_FAIR, K_QUARTER, Priors(Fraction(1, 10)), []) == "K"
    assert map_decide(H_FAIR, K_QUARTER, Priors(Fraction(9, 10)), []) == "H"


def test_map_tie_goes_to_h():
    assert map_decide(H_FAIR, K_QUARTER, Priors(0.5), []) == "H"
    assert map_decide(H_FAIR, H_FAIR, Priors(0.5), list("ab")) == "H"


def _weighted_error(h, k, priors, n, reject_k_mask, seqs, ph, pk):
    err = 0
    for j in range(len(seqs)):
        if reject_k_mask >> j & 1:
            err += priors.pi_h * ph[j]
        else:
            err += priors.pi_k * pk[j]
    return err


def test_map_minimises_weighted_error_small_bruteforce():
    h = H_FAIR
    k = K_QUARTER
    priors = Priors(Fraction(1, 2))
    n = 3
    seqs = list(itertools.product(h.alphabet, repeat=n))
    ph = [math.prod((h.prob(x) for x in s), start=Fraction(1)) for s in seqs]
    pk = [math.prod((k.prob(x) for x in s), start=Fraction(1)) for s in seqs]
    map_mask = 0
    for j, s in enumerate(seqs):
        if map_decide(h, k, priors, list(s)) == "K":
            map_mask |= 1 << j
    map_err = _weighted_error(h, k, priors, n, map_mask, seqs, ph, pk)
    best = min(
        _weighted_error(h, k, priors, n, mask, seqs, ph, pk)
        for mask in range(1 << len(seqs))
    )
    assert map_err == best


# --- ratio threshold as a divergence margin -----------------------------------------


def test_margin_rule_hand_computed():
    result = lr_threshold_as_kl_margin(H_FAIR, K_QUARTER, list("bbbb"), 2.0)
    # ratio (3/2)^4 = 5.0625 >= 2
    assert result.verdict is Verdict.ACCEPT_K
    assert result.margin == pytest.approx(math.log(2.0) / 4)


def test_margin_rule_s1_is_nearest_hypothesis():
    xs = list("aab")
    result = lr_threshold_as_kl_margin(H_FAIR, K_QUARTER, xs, 1.0)
    assert result.margin == 0.0
    closer_to_h = result.divergence_h <= result.divergence_k
    assert (result.verdict is Verdict.ACCEPT_H) == closer_to_h


def test_margin_rule_boundary_agrees_with_threshold():
    xs = list("bbbb")
    ev = evidence_from_sample(H_FAIR, K_QUARTER, xs)
    s = ev.exact_ratio  # exactly the achieved ratio
    result = lr_threshold_as_kl_margin(H_FAIR, K_QUARTER, xs, s)
    assert result.verdict is Verdict.ACCEPT_K
    assert threshold_verdict(ev, s) is Verdict.ACCEPT_K


def test_margin_rule_support_exclusion_routes_to_infinity():
    narrow = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    result = lr_threshold_as_kl_margin(narrow, H_FAIR, list("ab"), 4.0)
    assert result.divergence_h == math.inf
    assert result.verdict is Verdict.ACCEPT_K


def test_margin_rule_validates_inputs():
    with pytest.raises(EmptySampleError):
        lr_threshold_as_kl_margin(H_FAIR, K_QUARTER, [], 2.0)
    with pytest.raises(InputError):
        lr_threshold_as_kl_margin(H_FAIR, K_QUARTER, list("ab"), 0.5)


def test_margin_and_threshold_verdicts_agree_randomized():
    rng = random.Random(9)
    for _ in range(500):
        k_size = rng.randint(2, 4)
        h = random_rational_dist(rng, k_size)
        kd = random_rational_dist(rng, k_size)
        xs = [rng.choice(h.alphabet) for _ in range(rng.randint(1, 12))]
        s = rng.choice([1, Fraction(3, 2), 2, 8, 16, Fraction(19, 7)])
        ev = evidence_from_sample(h, kd, xs)
        lr_accepts = threshold_verdict(ev, s) is Verdict.ACCEPT_K
        kl_accepts = (
            lr_threshold_as_kl_margin(h, kd, xs, s).verdict is Verdict.ACCEPT_K
        )
        assert lr_accepts == kl_accepts


# --- evidence accumulation rate ------------------------------------------------------


def test_evidence_rate_zero_for_identical():
    est = evidence_rate(H_FAIR, H_FAIR, n=100, reps=20, seed=Seed(3))
    assert est.value == 0.0
    assert est.se == 0.0


def test_evidence_rate_requires_finite_divergence():
    narrow = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    with pytest.raises(InfiniteDivergenceError):
        evidence_rate(narrow, H_FAIR, n=10, reps=5, seed=Seed(1))


def test_evidence_rate_concentrates_on_divergence():
    est = evidence_rate(H_FAIR, K_QUARTER, n=4000, reps=100, seed=Seed(90))
    assert est.value == pytest.approx(float(kl(K_QUARTER, H_FAIR)), abs=4 * est.se + 1e-9)


def test_evidence_rate_sign_flips_with_roles():
    # with the generator swapped to H, the original-orientation statistic
    # (1/n) sum ln(k/h) is the negation of the swapped-call estimate
    est = evidence_rate(K_QUARTER, H_FAIR, n=4000, reps=100, seed=Seed(91))
    assert est.value == pytest.approx(float(kl(H_FAIR, K_QUARTER)), abs=4 * est.se + 1e-9)
    h_data_mean = -est.value
    assert h_data_mean == pytest.approx(-0.14384, abs=4 * est.se + 1e-4)


# --- the universal test ----------------------------------------------------------------


def test_radius_rule_shape():
    deltas = [types_bound_radius(2, n, 0.05) for n in (1, 10, 100, 10**4, 10**6)]
    assert all(c > 0 for c in deltas)
    assert deltas[-1] < 1e-4  # c_n -> 0
    products = [n * types_bound_radius(2, n, 0.05) for n in range(1, 200)]
    assert all(a <= b for a, b in zip(products, products[1:]))


def test_radius_hand_value():
    assert types_bound_radius(2, 100, 0.05) == pytest.approx(
        (math.log(101) + math.log(20)) / 100, abs=1e-12
    )
    assert types_bound_radius(2, 100, 0.05) == pytest.approx(0.0761, abs=1e-4)


def test_radius_is_bit_identical_to_the_reciprocal_form_at_five_percent():
    for k, n in ((2, 100), (4, 1000), (8, 7)):
        want = ((k - 1) * math.log(n + 1) + math.log(1.0 / 0.05)) / n
        assert types_bound_radius(k, n, 0.05) == want


def test_radius_stays_finite_for_a_subnormal_delta():
    want = (2 * mpmath.log(4) - mpmath.log(mpmath.mpf(1e-320))) / 3  # 1e-320 as stored
    assert types_bound_radius(3, 3, 1e-320) == pytest.approx(float(want), rel=1e-14)
    # H gives 'c' zero mass, so observing it falsifies H at every delta
    h = FiniteDistribution(("a", "b", "c"), (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    for delta in (1e-300, 1e-320, 5e-324):
        result = hoeffding_test(h, ["a", "c", "b"], UniversalTestConfig(delta=delta))
        assert result.decision is UniversalDecision.REJECT_H


def test_universal_test_accepts_perfectly_balanced_sample():
    cfg = UniversalTestConfig(delta=0.05)
    result = hoeffding_test(H_FAIR, list("ab" * 50), cfg)
    assert result.statistic == 0.0
    assert result.decision is UniversalDecision.ACCEPT_H


def test_universal_test_rejects_constant_run():
    cfg = UniversalTestConfig(delta=0.05)
    result = hoeffding_test(H_FAIR, ["a"] * 100, cfg)
    assert result.statistic == pytest.approx(math.log(2.0), abs=1e-12)
    assert result.radius == pytest.approx(0.0761, abs=1e-4)
    assert result.decision is UniversalDecision.REJECT_H


def test_universal_test_single_observation():
    cfg = UniversalTestConfig(delta=0.05)
    result = hoeffding_test(K_QUARTER, ["a"], cfg)
    assert result.statistic == pytest.approx(math.log(4.0), abs=1e-12)
    assert result.decision is (
        UniversalDecision.ACCEPT_H
        if result.statistic <= result.radius
        else UniversalDecision.REJECT_H
    )


def test_universal_test_zero_mass_observation_rejects():
    narrow = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    result = hoeffding_test(narrow, ["b"], UniversalTestConfig(delta=0.1))
    assert result.statistic == math.inf
    assert result.decision is UniversalDecision.REJECT_H


def test_universal_test_custom_radius_rule():
    cfg = UniversalTestConfig(delta=0.05, radius_rule=lambda n: 5.0)
    result = hoeffding_test(H_FAIR, ["a"] * 100, cfg)
    assert result.decision is UniversalDecision.ACCEPT_H


def test_universal_test_empty_sample():
    with pytest.raises(EmptySampleError):
        hoeffding_test(H_FAIR, [], UniversalTestConfig(delta=0.05))


def test_universal_test_level_holds_at_large_n():
    # the union-bound radius keeps the false-rejection rate under delta
    # even at n = 10**4, where the radius is already tiny
    h = FiniteDistribution.uniform(("a", "b", "c", "d"))
    cfg = UniversalTestConfig(delta=0.05)
    rejects = 0
    reps = 300
    for i in range(reps):
        xs = sample(h, 10**4, Seed(83, i))
        if hoeffding_test(h, xs, cfg).decision is UniversalDecision.REJECT_H:
            rejects += 1
    rate = rejects / reps
    se = math.sqrt(max(rate * (1 - rate), 1e-9) / reps)
    assert rate <= 0.05 + 3 * se


def test_universal_test_power_grows_with_n():
    # against a fixed alternative the statistic converges to a positive
    # divergence while the radius vanishes
    cfg = UniversalTestConfig(delta=0.05)
    rejected = 0
    for i in range(50):
        xs = sample(bernoulli(Fraction(3, 4)), 1000, Seed(71, i))
        if hoeffding_test(H_FAIR, xs, cfg).decision is UniversalDecision.REJECT_H:
            rejected += 1
    assert rejected == 50


# --- samples counted once, against the public counting route ---------------------


@st.composite
def _sample_calls(draw):
    """Hypotheses over 1-6 symbols, exact, float or one of each, with zero
    cells anywhere; a sample of 0-70 symbols that may hold one symbol
    outside the alphabet, hashable or not; priors and a threshold."""
    size = draw(st.integers(1, 6))
    labels = tuple(string.ascii_lowercase[:size])

    def dist():
        weights = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size).filter(any))
        probs = tuple(Fraction(w, sum(weights)) for w in weights)
        return FiniteDistribution(labels, tuple(map(float, probs)) if draw(st.booleans())
                                  else probs)

    h, k = dist(), dist()
    n = draw(st.integers(0, 70))
    xs = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    foreign = draw(st.sampled_from((None, None, None, "z", ["a"])))
    if foreign is not None:
        xs.insert(draw(st.integers(0, n)), foreign)
    priors = Priors(draw(st.sampled_from((Fraction(1, 2), Fraction(1, 3), 0.75))))
    s = draw(st.sampled_from((1, 2, 8, Fraction(3, 2), 4.0)))
    return h, k, xs, priors, s


def _public_counts(h, k, xs):
    """(evidence, D(emp||h), D(emp||k)) through empirical,
    evidence_from_counts and kl; divergences 0 for an empty sample."""
    emp = empirical(xs, h.alphabet)
    ev = evidence_from_counts(h, k, emp.counts, emp.n)
    if emp.n == 0:
        return ev, 0.0, 0.0
    return ev, kl(emp, h).nats, kl(emp, k).nats


def _public_identity(h, k, xs):
    ev, d_h, d_k = _public_counts(h, k, xs)
    return ev.sum_log_lr, ev.n * (d_h - d_k)


def _public_margin(h, k, xs, s):
    if not xs:
        raise EmptySampleError("margin rule needs at least one observation")
    evidential._check_threshold(s)
    ev, d_h, d_k = _public_counts(h, k, xs)
    margin = math.log(s) / len(xs)
    if ev.exact_ratio is not None:
        accept_k = threshold_verdict(ev, s) is Verdict.ACCEPT_K
    else:
        accept_k = d_h - margin >= d_k
    return KlMarginVerdict(Verdict.ACCEPT_K if accept_k else Verdict.ACCEPT_H, margin, d_h, d_k)


def _public_hoeffding(h, xs, cfg):
    if not xs:
        raise EmptySampleError("universal test needs at least one observation")
    statistic = kl(empirical(xs, h.alphabet), h).nats
    radius = cfg.radius(len(xs), h.size)
    accept = statistic <= radius
    return HoeffdingResult(UniversalDecision.ACCEPT_H if accept else UniversalDecision.REJECT_H,
                           statistic, radius, len(xs))


def _outcome(call):
    """repr of call()'s value, or its error's type and message; an
    exception other than a TestlabError fails the test."""
    try:
        return repr(call())
    except errors.TestlabError as exc:
        return type(exc), str(exc)


_ONLY_A, _ONLY_B = (FiniteDistribution(("a", "b", "c"), ps)
                    for ps in ((1, 0, 0), (0.0, 1.0, 0.0)))


@given(_sample_calls())
# a symbol with zero mass under both, a sample that each hypothesis's
# support excludes, a symbol outside the alphabet and an unhashable one
@example((_ONLY_A, _ONLY_B, ["a", "c"], Priors(Fraction(1, 2)), 2))
@example((_ONLY_A, _ONLY_B, ["a", "b"], Priors(Fraction(1, 2)), 2))
@example((H_FAIR, K_QUARTER, ["a", "z"], Priors(Fraction(1, 2)), 2))
@example((H_FAIR, K_QUARTER, ["b", ["a"]], Priors(Fraction(1, 2)), 2))
@settings(max_examples=400, deadline=None)
def test_sample_calls_equal_the_public_counting_route(case):
    h, k, xs, priors, s = case
    cfg = UniversalTestConfig(delta=0.05)
    pairs = (
        (lambda: evidence_from_sample(h, k, xs), lambda: _public_counts(h, k, xs)[0]),
        (lambda: loglr_kl_identity_check(h, k, xs), lambda: _public_identity(h, k, xs)),
        (lambda: map_decide(h, k, priors, xs),
         lambda: info_geometry._map_decision(priors, *_public_counts(h, k, xs))),
        (lambda: lr_threshold_as_kl_margin(h, k, xs, s), lambda: _public_margin(h, k, xs, s)),
        (lambda: hoeffding_test(h, xs, cfg), lambda: _public_hoeffding(h, xs, cfg)),
    )
    for call, reference in pairs:
        assert _outcome(call) == _outcome(reference)
