import decimal
import math
import random
import re
import sys
import threading
import time
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
from testlab.dist import _finite_indices, parse_probability

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


@pytest.mark.parametrize("text", ["inf", "-inf", "Infinity", "+Infinity", "nan", "sNaN"])
def test_parse_probability_rejects_non_finite_decimals(text):
    with pytest.raises(InputError, match="cannot parse probability"):
        parse_probability(text)


@pytest.mark.parametrize(
    "text",
    ["1e-4301", "1e4301", "0.01e-4299", "0e-99999999", "1e-10000000", "1e999999999",
     pytest.param("0." + "3" * 4301, id="4301-decimals"),
     pytest.param("1" * 4302, id="4302-digits")],
)
def test_parse_probability_rejects_exponents_beyond_the_bound_at_once(text):
    started = time.perf_counter()
    with pytest.raises(InputError, match=re.escape(repr(text))):
        parse_probability(text)
    assert time.perf_counter() - started < 0.5


@pytest.mark.parametrize("x", [5e-324, 2.2250738585072014e-308, 0.1, 1.0])
def test_parse_probability_keeps_the_exact_decimal_of_every_double(x):
    exact = decimal.Decimal(x)  # up to 1 074 fractional digits
    assert parse_probability(f"{exact:f}") == Fraction(x)
    assert parse_probability(str(exact)) == Fraction(x)
    assert parse_probability("1e-4300") == Fraction(1, 10**4300)


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


_REP_ROOTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
    *map(random.Random(2024).getrandbits, [64] * 3)
]


def same_start(gen, seed, i):
    """gen holds the state seed.rng(i) starts in, and draws what it draws."""
    want = seed.rng(i)
    if gen.bit_generator.state != want.bit_generator.state:
        return False
    return (gen.random(3).tolist() + gen.normal(size=2).tolist()
            == want.random(3).tolist() + want.normal(size=2).tolist())


def rep_rng(seed, i):
    """The generator seed._rep_rngs gives replication i alone."""
    return next(seed._rep_rngs(range(i, i + 1)))


@pytest.mark.parametrize("stream", [0, 1, 2**32 - 1, 2**32 + 5])
def test_replication_reseed_matches_rng(stream):
    for root in _REP_ROOTS:
        seed = Seed(root, stream)
        for i in (0, 1, 1023, 1024, 2**32 - 1, 2**32, 2**40):
            assert same_start(rep_rng(seed, i), seed, i), (root, i)
        # one generator reset along a span of a block, and past 2**32
        for span in (range(1024, 2048, 97), range(2**32, 2**32 + 5)):
            for i, gen in zip(span, seed._rep_rngs(span), strict=True):
                assert same_start(gen, seed, i), (root, i)


def test_replication_reseed_with_seeds_and_blocks_alternating():
    # spans of four seeds and three blocks, each advanced in turn: no span
    # sees another's words or generator
    seeds = [Seed(5, 0), Seed(5, 1), Seed(6, 0), Seed(6, 1)]
    spans = [range(3, 1024, 300), range(1027, 2048, 300), range(2**20 + 3, 2**20 + 1024, 300)]
    live = [(seed, iter(span), seed._rep_rngs(span)) for seed in seeds for span in spans]
    for _ in range(4):
        for seed, indices, gens in live + live[::-1]:
            i, gen = next(indices, None), next(gens, None)
            assert (i is None) == (gen is None)
            if i is not None:
                assert same_start(gen, seed, i), (seed, i)


def test_replication_reseed_per_thread():
    # each thread reseeds, in a block of its own, between the other's
    # reseed and draw
    barrier = threading.Barrier(2, timeout=10)
    seed = Seed(77, 2)
    results = {}

    def worker(name, indices):
        ok = []
        for i, gen in zip(indices, seed._rep_rngs(indices)):
            barrier.wait()
            ok.append(same_start(gen, seed, i))
            barrier.wait()
        results[name] = ok

    threads = [
        threading.Thread(target=worker, args=("a", range(0, 1024, 200))),
        threading.Thread(target=worker, args=("b", range(5 * 1024 + 1, 6 * 1024, 200))),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert results == {"a": [True] * 6, "b": [True] * 6}


def test_replication_reseed_under_thread_switching():
    seed = Seed(31337)
    failures = []

    def worker(lo):
        for block in range(4):
            span = range(block * 1024 + lo, (block + 1) * 1024, 4)
            for i, gen in zip(span, seed._rep_rngs(span)):
                if not same_start(gen, seed, i):
                    failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(lo,)) for lo in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


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


class _FixedUniforms:
    """Generator stand-in whose random(n) returns chosen uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_trailing_zero_mass_symbol_is_never_drawn():
    # ten masses of 1/10 sum to the largest double below 1 in floats, so the
    # largest uniform reaches the float CDF of the last support symbol
    d = FiniteDistribution(tuple(range(11)), (Fraction(1, 10),) * 10 + (Fraction(0),))
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(d.float_probs())[9] == top
    idx = _finite_indices(d, 3, _FixedUniforms([0.0, 0.95, top]))
    assert idx.tolist() == [0, 9, 9]


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8).filter(any),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
)
@settings(max_examples=300, deadline=None)
def test_step_count_agrees_with_binary_search_on_the_support(weights, uniforms):
    k = len(weights)
    d = FiniteDistribution(tuple(range(k)), tuple(Fraction(w, sum(weights)) for w in weights))
    cdf = np.cumsum(d.float_probs())
    u = np.concatenate([uniforms, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    idx = _finite_indices(d, u.size, _FixedUniforms(u))
    reference = np.minimum(np.searchsorted(cdf, u, side="right"), k - 1)
    on_support = np.array(weights)[reference] > 0
    assert idx.dtype == np.intp
    assert np.array_equal(idx[on_support], reference[on_support])
    assert all(weights[i] > 0 for i in idx)


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
