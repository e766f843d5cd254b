import bisect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testlab import (
    FiniteDistribution,
    TailDirection,
    binomial_tail,
    identical_point_prob_pair,
    p_value,
    significance_verdict,
)
from testlab.dist import as_probability
from testlab.fisher import _first_significant_count
from testlab.errors import InputError, UnknownSymbolError, UnorderedAlphabetError

from helpers import random_rational_dist, super_uniformity_holds

GE = TailDirection.GREATER_EQUAL
LE = TailDirection.LESS_EQUAL
ABS = TailDirection.TWO_SIDED_ABS


# --- exact binomial tails -----------------------------------------------------


def test_eighty_of_eighty_two():
    report = binomial_tail(82, 80, Fraction(1, 2), GE)
    assert report.p == Fraction(3404, 2**82)
    assert report.point_prob == Fraction(math.comb(82, 80), 2**82)
    assert report.n_extreme == 3
    assert f"{float(report.p):.0e}" == "7e-22"


def test_all_of_eighty_two():
    assert binomial_tail(82, 82, "1/2", GE).p == Fraction(1, 2**82)


def test_tiny_case_by_enumeration():
    # two fair coin flips: {HH, HT, TH, TT}, three of four have >= 1 head
    assert binomial_tail(2, 1, Fraction(1, 2), GE).p == Fraction(3, 4)


def test_half_denominator_divides_power_of_two():
    report = binomial_tail(13, 9, Fraction(1, 2), GE)
    assert (2**13) % report.p.denominator == 0


def test_theta_as_decimal_string_is_exact():
    assert binomial_tail(4, 4, "0.5", GE).p == Fraction(1, 16)


def test_complement_identity_exact():
    theta = Fraction(2, 7)
    n = 11
    for k in range(n):
        upper = binomial_tail(n, k + 1, theta, GE).p
        lower = binomial_tail(n, k, theta, LE).p
        assert upper + lower == 1


@given(
    st.integers(min_value=1, max_value=25),
    st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=60),
        st.floats(min_value=0, max_value=1),
    ),
)
@settings(max_examples=60, deadline=None)
def test_upper_tail_does_not_increase_with_count(n, theta):
    # so the first significant count can be found by bisection
    tails = [binomial_tail(n, c, theta).p for c in range(n + 1)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_binomial_tail_input_checks():
    with pytest.raises(InputError):
        binomial_tail(0, 0, Fraction(1, 2))
    with pytest.raises(InputError):
        binomial_tail(5, 6, Fraction(1, 2))
    with pytest.raises(InputError):
        binomial_tail(5, 2, Fraction(3, 2))
    with pytest.raises(UnknownSymbolError, match="symbol 2.5 not in alphabet"):
        binomial_tail(5, 2.5, Fraction(1, 2))
    with pytest.raises(InputError, match="unknown direction 'ge'"):
        binomial_tail(5, 2, Fraction(1, 2), "ge")


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_binomial_tail_rejects_non_finite_float_theta(theta):
    with pytest.raises(InputError, match=rf"theta must be in \[0, 1\], got {theta!r}$"):
        binomial_tail(5, 2, theta)


def _binomial_tail_by_terms(n, k, theta, direction):
    """The tail built term by term: n + 1 Fractions, validated as a
    FiniteDistribution over the counts 0..n, then summed by p_value."""
    theta = as_probability(theta)
    if isinstance(theta, float):
        theta = Fraction(theta)
    probs = tuple(
        math.comb(n, j) * theta**j * (1 - theta) ** (n - j) for j in range(n + 1)
    )
    return p_value(FiniteDistribution(tuple(range(n + 1)), probs), k, direction)


_THETA = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.floats(min_value=0, max_value=1),
    st.decimals(min_value=0, max_value=1, places=8).map(str),
    st.integers(1, 40).map(lambda e: f"1e-{e}"),
)


@st.composite
def _tail_cases(draw):
    theta = draw(_THETA)
    # the reference's cost grows with n times the digits of theta
    bits = Fraction(as_probability(theta)).denominator.bit_length()
    n = draw(st.integers(1, 60 if bits <= 256 else 8))
    return n, draw(st.integers(0, n)), theta, draw(st.sampled_from([GE, LE, ABS]))


@given(_tail_cases())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_integer_sum_tail_equals_the_term_by_term_tail(case):
    got, want = binomial_tail(*case), _binomial_tail_by_terms(*case)
    assert (got.p, got.point_prob, got.n_extreme, got.direction) == (
        want.p, want.point_prob, want.n_extreme, want.direction
    )
    assert type(got.p) is type(want.p) is Fraction
    assert type(got.point_prob) is type(want.point_prob) is Fraction


def _first_significant_count_by_bisection(n, theta, alpha):
    def significant(c):
        return binomial_tail(n, c, theta).significant(alpha)

    return bisect.bisect_left(range(n + 1), True, key=significant)


def test_first_significant_count_equals_bisection_on_a_grid():
    # at theta 1/2, alpha 0.25, 0.125 and 0.5 equal the tails at n = 2,
    # n = 3 and each odd n: a tail equal to alpha counts as significant
    thetas = (
        Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(9, 10),
        0.1, 0.7, 1 / 3, Fraction(1, 10**40),
    )
    alphas = (0.25, 0.125, 0.05, 0.5, 1e-12, 0.999999)
    for n in (*range(1, 41), 60):
        for theta in thetas:
            for alpha in alphas:
                want = _first_significant_count_by_bisection(n, theta, alpha)
                assert _first_significant_count(n, theta, alpha) == want, (n, theta, alpha)


# --- directed p-values ---------------------------------------------------------


def test_sharp_versus_heavy_tail_same_point_probability():
    sharp, heavy, x = identical_point_prob_pair()
    p_sharp = p_value(sharp, x, LE)
    p_heavy = p_value(heavy, x, LE)
    assert p_sharp.p == Fraction(3, 100)
    assert p_heavy.p == Fraction(42, 100)
    assert p_sharp.point_prob == p_heavy.point_prob == Fraction(2, 100)
    assert significance_verdict(p_sharp.p, 0.05)
    assert not significance_verdict(p_heavy.p, 0.05)


def test_point_mass_upper_tail_is_one():
    d = FiniteDistribution(("lo", "hi"), (Fraction(0), Fraction(1)))
    assert p_value(d, "lo", GE).p == 1


def test_float_tail_summing_past_one_is_clamped_to_one():
    # 0.2 + 0.4 + 0.3 + 0.1 rounds to 1.0000000000000002 in doubles
    d = FiniteDistribution((1, 2, 3, 4), (0.2, 0.4, 0.3, 0.1))
    report = p_value(d, 1, GE)
    assert report.p == 1.0 and type(report.p) is float
    assert report.point_prob == 0.2


def test_two_sided_abs():
    d = FiniteDistribution(
        (-2, -1, 0, 1, 2),
        tuple(Fraction(w, 10) for w in (1, 2, 4, 2, 1)),
    )
    report = p_value(d, 1, ABS)
    assert report.p == Fraction(6, 10)
    assert report.n_extreme == 4


def test_two_sided_abs_needs_numeric_labels():
    with pytest.raises(UnorderedAlphabetError):
        p_value(FiniteDistribution.uniform(("a", "b")), "a", ABS)


def test_two_sided_abs_reads_str_labels_as_exact_numbers():
    d = FiniteDistribution.uniform(("-0.5", "1/4", "1/2", "2.5e-3"))
    rep = p_value(d, "1/2", ABS)
    assert (rep.p, rep.n_extreme) == (Fraction(1, 2), 2)


def test_monotone_in_tail_direction():
    rng = random.Random(3)
    for _ in range(20):
        d = random_rational_dist(rng, rng.randint(2, 9), allow_zero=True)
        ps = [p_value(d, x, GE).p for x in d.alphabet]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_invariant_under_monotone_relabeling():
    rng = random.Random(4)
    d = random_rational_dist(rng, 6)
    relabeled = FiniteDistribution(
        tuple(3 * i + 1 for i in range(6)), d.probs
    )
    for i, x in enumerate(d.alphabet):
        assert p_value(d, x, GE).p == p_value(relabeled, 3 * i + 1, GE).p


def test_report_invariant_point_within_tail():
    d = FiniteDistribution.uniform(("a", "b", "c"))
    report = p_value(d, "b", GE)
    assert report.point_prob <= report.p <= 1


# --- significance conventions ---------------------------------------------------


@pytest.mark.parametrize(
    "p,level,expected",
    [
        (0.03, 0.05, True),
        (0.06, 0.05, False),
        (0.05, 0.05, True),  # boundary is significant
        (Fraction(1, 100), 0.01, True),
    ],
)
def test_significance_verdict(p, level, expected):
    assert significance_verdict(p, level) is expected


def test_significance_level_domain():
    with pytest.raises(InputError):
        significance_verdict(0.04, 0.0)
    with pytest.raises(InputError):
        significance_verdict(0.04, 1.0)


# --- super-uniformity ------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_super_uniformity_randomized(seed):
    rng = random.Random(seed)
    d = random_rational_dist(rng, rng.randint(2, 20), allow_zero=True)
    assert super_uniformity_holds(d, GE)
    assert super_uniformity_holds(d, LE)
