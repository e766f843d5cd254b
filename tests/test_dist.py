import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testlab import (
    EmpiricalDistribution,
    FiniteDistribution,
    Gaussian,
    GaussianPair,
    Seed,
    empirical,
    gaussian_cdf,
    gaussian_quantile,
    sample,
)
from testlab.errors import (
    DistributionError,
    EmptySampleError,
    InputError,
    UnknownSymbolError,
)

from helpers import bernoulli, random_rational_dist, total_variation

mpmath.mp.dps = 40


# --- FiniteDistribution -----------------------------------------------------


def test_exact_mode_keeps_fractions():
    d = bernoulli(Fraction(1, 3))
    assert d.is_exact
    assert d.prob("a") == Fraction(1, 3)


def test_float_mode_coerces_everything():
    d = FiniteDistribution(("a", "b"), (0.25, Fraction(3, 4)))
    assert not d.is_exact
    assert d.prob("b") == 0.75


@pytest.mark.parametrize(
    "probs",
    [
        (Fraction(1, 2), Fraction(1, 3)),  # sums to 5/6
        (0.5, 0.5 + 1e-9),
        (Fraction(3, 2), Fraction(-1, 2)),  # negative entry
    ],
)
def test_invalid_probabilities_rejected(probs):
    with pytest.raises(DistributionError):
        FiniteDistribution(("a", "b"), probs)


def test_duplicate_labels_rejected():
    with pytest.raises(DistributionError):
        FiniteDistribution(("a", "a"), (Fraction(1, 2), Fraction(1, 2)))


def test_log_prob_uniform():
    d = FiniteDistribution.uniform(("a", "b"))
    assert d.log_prob("a") == pytest.approx(math.log(0.5), abs=1e-12)


def test_log_prob_zero_mass_is_exactly_neg_inf():
    d = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    assert d.log_prob("b") == -math.inf


def test_log_prob_fair_two_point():
    assert bernoulli(Fraction(1, 2), ("boy", "girl")).log_prob("boy") == pytest.approx(
        math.log(0.5)
    )


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        FiniteDistribution.uniform(("a", "b")).prob("c")


def test_log_prob_survives_tiny_fractions():
    d = FiniteDistribution(
        ("a", "b"), (Fraction(1, 2**400), 1 - Fraction(1, 2**400))
    )
    assert d.log_prob("a") == pytest.approx(-400 * math.log(2), rel=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10))
@settings(max_examples=100)
def test_exp_log_prob_sums_to_one(weights):
    total = sum(weights)
    d = FiniteDistribution(
        tuple(range(len(weights))),
        tuple(Fraction(w, total) for w in weights),
    )
    assert abs(sum(math.exp(d.log_prob(x)) for x in d.alphabet) - 1.0) <= 1e-12


# --- empirical counts --------------------------------------------------------


def test_empirical_counts():
    e = empirical(("a", "b", "a"), ("a", "b"))
    assert e.counts == (2, 1)
    assert e.n == 3


def test_empirical_empty():
    e = empirical((), ("a", "b"))
    assert e.n == 0
    with pytest.raises(EmptySampleError):
        e.frequencies()


def test_empirical_rejects_stray_symbol():
    with pytest.raises(UnknownSymbolError):
        empirical(("a", "z"), ("a", "b"))


def test_empirical_frequencies_are_exact():
    e = EmpiricalDistribution(("a", "b"), (3, 1), 4)
    f = e.frequencies()
    assert f.probs == (Fraction(3, 4), Fraction(1, 4))


def test_empirical_count_mismatch_rejected():
    with pytest.raises(DistributionError):
        EmpiricalDistribution(("a", "b"), (3, 1), 5)


def test_empirical_of_large_sample_converges():
    d = bernoulli(Fraction(1, 4))
    xs = sample(d, 10**6, Seed(11))
    freq = empirical(xs, d.alphabet).frequencies()
    assert abs(float(freq.prob("a")) - 0.25) < 0.005


# --- sampling ----------------------------------------------------------------


def test_sampling_deterministic_for_equal_seeds():
    d = bernoulli(Fraction(1, 2))
    assert sample(d, 1000, Seed(7, 3)) == sample(d, 1000, Seed(7, 3))


def test_sampling_streams_are_distinct():
    d = bernoulli(Fraction(1, 2))
    assert sample(d, 1000, Seed(7, 0)) != sample(d, 1000, Seed(7, 1))


def test_sampling_independent_of_derivation_order():
    seed = Seed(123)
    first_then_second = [seed.rng(0).random(3).tolist(), seed.rng(1).random(3).tolist()]
    second_then_first = [seed.rng(1).random(3).tolist(), seed.rng(0).random(3).tolist()]
    assert first_then_second == second_then_first[::-1]


def test_point_mass_sampling():
    d = FiniteDistribution(("a", "b"), (Fraction(1), Fraction(0)))
    assert sample(d, 5, Seed(0)) == ["a"] * 5


def test_uniform_frequencies_close():
    d = FiniteDistribution.uniform(("a", "b"))
    xs = sample(d, 10**5, Seed(5))
    freq = xs.count("a") / len(xs)
    assert abs(freq - 0.5) < 0.01


def test_gaussian_sampling():
    xs = sample(Gaussian(2.0, 3.0), 20000, Seed(9))
    assert isinstance(xs, np.ndarray)
    assert abs(xs.mean() - 2.0) < 0.1


def test_sample_rejects_empty_request():
    with pytest.raises(InputError):
        sample(bernoulli(Fraction(1, 2)), 0, Seed(0))


@pytest.mark.parametrize("k", [2, 5, 10])
def test_empirical_total_variation_shrinks(k):
    rng = random.Random(k)
    d = random_rational_dist(rng, k)
    xs = sample(d, 10**5, Seed(40 + k))
    freq = empirical(xs, d.alphabet).frequencies()
    assert total_variation(freq, d) < 0.01


# --- Gaussian types ----------------------------------------------------------


def test_gaussian_pair_effect():
    pair = GaussianPair(0.0, 1.5, 2.0)
    assert pair.effect == 1.5
    assert pair.h.mean == 0.0
    assert pair.k.sigma == 2.0


def test_gaussian_pair_rejects_negative_effect():
    with pytest.raises(DistributionError):
        GaussianPair(1.0, 0.0, 1.0)


def test_gaussian_pair_rejects_bad_sigma():
    with pytest.raises(DistributionError):
        GaussianPair(0.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "mean, sigma",
    [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan), (0.0, -1.0)],
)
def test_gaussian_rejects_non_finite_parameters(mean, sigma):
    with pytest.raises(DistributionError):
        Gaussian(mean, sigma)


def test_log_density_ratio_matches_densities():
    pair = GaussianPair(0.0, 1.0, 0.7)
    for x in (-1.0, 0.2, 3.0):
        direct = pair.k.log_density(x) - pair.h.log_density(x)
        assert pair.log_density_ratio(x) == pytest.approx(direct, abs=1e-12)


# --- normal CDF and quantile -------------------------------------------------


def test_gaussian_cdf_at_zero():
    assert gaussian_cdf(0.0) == 0.5


def test_gaussian_cdf_against_high_precision_oracle():
    for z in np.linspace(-8, 8, 81):
        want = float(mpmath.ncdf(mpmath.mpf(float(z))))
        assert abs(gaussian_cdf(float(z)) - want) <= 1e-10


def test_gaussian_cdf_known_value():
    assert gaussian_cdf(-0.5) == pytest.approx(0.3085375387259869, abs=1e-12)


def test_gaussian_quantile_inverts_cdf():
    assert gaussian_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
    for p in (1e-8, 0.025, 0.31, 0.5, 0.999):
        assert gaussian_cdf(gaussian_quantile(p)) == pytest.approx(p, abs=1e-13)


def test_gaussian_quantile_domain():
    with pytest.raises(InputError):
        gaussian_quantile(0.0)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=200)
def test_gaussian_cdf_symmetry(z):
    assert abs(gaussian_cdf(z) + gaussian_cdf(-z) - 1.0) <= 1e-12


def test_seed_validation():
    with pytest.raises(InputError):
        Seed(-1)
    with pytest.raises(InputError):
        Seed(2**64)
    with pytest.raises(InputError):
        Seed(0, -2)
