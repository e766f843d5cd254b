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
from testlab.errors import InputError, UnorderedAlphabetError

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
    # the optional-stopping runner bisects for the first significant count
    tails = [binomial_tail(n, c, theta).p for c in range(n + 1)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_binomial_tail_input_checks():
    with pytest.raises(InputError):
        binomial_tail(0, 0, Fraction(1, 2))
    with pytest.raises(InputError):
        binomial_tail(5, 6, Fraction(1, 2))
    with pytest.raises(InputError):
        binomial_tail(5, 2, Fraction(3, 2))


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
