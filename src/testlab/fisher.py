"""Single-hypothesis significance testing: directed tail p-values over
ordered finite alphabets, exact binomial tails, and the conventional
significance levels.

Tails are inclusive of the observed value, and rational inputs give exact
rational p-values, so astronomically small tails keep their exact
numerator and denominator instead of a rounded double.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .dist import FiniteDistribution, Probability, _show, as_probability, parse_probability
from .errors import InputError, UnknownSymbolError, UnorderedAlphabetError


class TailDirection(Enum):
    GREATER_EQUAL = "ge"
    LESS_EQUAL = "le"
    TWO_SIDED_ABS = "abs"

    @classmethod
    def parse(cls, text: str) -> "TailDirection":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise InputError(
                f"unknown tail direction {text!r}; expected ge, le or abs"
            ) from None


#: Conventional significance levels, strongest last.
CONVENTIONAL_LEVELS = (0.05, 0.01, 0.001)


@dataclass(frozen=True)
class PValueReport:
    """A directed tail probability together with how it was built.

    The observed value always sits inside its own tail, so
    0 <= point_prob <= p <= 1.
    """

    p: Probability
    direction: TailDirection
    point_prob: Probability
    n_extreme: int

    def __post_init__(self):
        if not 0 <= self.point_prob <= self.p <= 1:
            raise InputError(
                f"inconsistent report: point={self.point_prob!r} p={self.p!r}"
            )

    def significant(self, level: float = 0.05) -> bool:
        return significance_verdict(self.p, level)


def p_value(d: FiniteDistribution, x, direction: TailDirection) -> PValueReport:
    """Probability of the observed symbol and everything more extreme.

    GREATER_EQUAL / LESS_EQUAL read extremeness off the alphabet's declared
    order; TWO_SIDED_ABS needs signed numeric labels and sums P(|X| >= |x|).
    A str label, as files and scenarios give, is read as the exact number it
    spells ("-2", "1/2", "2.5e-3").
    Exact Fractions in, exact Fraction out.
    """
    pos = d.index(x)
    if direction is TailDirection.GREATER_EQUAL:
        tail = range(pos, d.size)
    elif direction is TailDirection.LESS_EQUAL:
        tail = range(0, pos + 1)
    elif direction is TailDirection.TWO_SIDED_ABS:
        try:
            mag = [abs(parse_probability(y) if isinstance(y, str) else y)
                   for y in d.alphabet]
            tail = [i for i, m in enumerate(mag) if m >= mag[pos]]
        except (TypeError, InputError):
            raise UnorderedAlphabetError(
                "two-sided tails need signed numeric labels"
            ) from None
    else:
        raise InputError(f"unknown direction {direction!r}")

    p = sum(d.probs[i] for i in tail)
    if not d.is_exact:
        p = min(float(p), 1.0)
    return PValueReport(
        p=p, direction=direction, point_prob=d.prob(x), n_extreme=len(tail)
    )


def binomial_tail(
    n: int,
    k: int,
    theta,
    direction: TailDirection = TailDirection.GREATER_EQUAL,
) -> PValueReport:
    """Exact rational tail of Binomial(n, theta) at the observed count k.

    theta may be a Fraction, an int, a decimal/fraction string, or a float
    (floats are taken at their exact binary value). For theta = 1/2 the
    resulting denominator divides 2**n.

    With theta = a/b in lowest terms and c = b - a, the upper tail is one
    integer sum over b**n: P(X >= k) = sum_{j >= k} t_j / b**n with
    t_j = C(n, j) a**j c**(n - j), and each term follows exactly from the
    last, t_{j+1} = t_j (n - j) a // ((j + 1) c). The lower tail is the
    mirrored upper one, P(X <= k; theta) = P(X >= n - k; 1 - theta), and on
    the counts 0..n the two-sided |X| >= |k| tail is the upper one.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if not 0 <= k <= n:
        raise InputError(f"k must be in [0, {n}], got {k}")
    theta = as_probability(theta)
    if isinstance(theta, float) and math.isfinite(theta):
        theta = Fraction(theta)
    if not 0 <= theta <= 1:  # also false for NaN
        raise InputError(f"theta must be in [0, 1], got {_show(theta)}")
    j = int(k)
    if j != k:  # the labels are the counts 0..n
        raise UnknownSymbolError(f"symbol {k!r} not in alphabet")
    if not isinstance(direction, TailDirection):
        raise InputError(f"unknown direction {direction!r}")
    n = operator.index(n)  # a numpy integer would wrap in the integer sum
    a, b = theta.numerator, theta.denominator
    c = b - a
    if direction is TailDirection.LESS_EQUAL:
        j, a, c = n - j, c, a
    point = term = total = math.comb(n, j) * a**j * c ** (n - j)
    if c == 0:  # all the mass sits on n, which every upper tail holds
        total = a**n
    else:
        for i in range(j, n):
            term = term * ((n - i) * a) // ((i + 1) * c)
            total += term
    den = b**n
    return PValueReport(
        p=Fraction(total, den),
        direction=direction,
        point_prob=Fraction(point, den),
        n_extreme=n - j + 1,
    )


def _first_significant_count(n: int, theta, alpha: float) -> int:
    """The least count whose upper tail under Binomial(n, theta) is
    significant at alpha in (0, 1), n + 1 when none is.

    One descending pass over binomial_tail's integer terms, from t_n = a**n
    by t_{k-1} = t_k k c // ((n - k + 1) a), keeps the running tail over
    b**n and stops at the first count whose tail exceeds alpha = num/den,
    compared exactly: tail * den > num * b**n.
    """
    a, b = theta.as_integer_ratio()
    if a == 0:  # all the mass sits on 0, so every count from 1 has tail 0
        return 1
    c = b - a
    num, den = alpha.as_integer_ratio()
    bound = num * b**n
    k = n
    term = total = a**n
    while total * den <= bound:
        term = term * k * c // ((n - k + 1) * a)
        total += term
        k -= 1
    return k + 1


def significance_verdict(p, level: float = 0.05) -> bool:
    """True iff p <= level. The boundary counts as significant."""
    if not 0 < level < 1:
        raise InputError(f"level must be in (0, 1), got {level!r}")
    return p <= level


def identical_point_prob_pair():
    """Two four-point distributions with the same probability 1/50 at the
    observed value but lower-tail p-values of 3/100 and 42/100.

    Returns (sharp_tail, heavy_tail, observed_symbol); a one-sided test at
    5% rejects the first hypothesis and is nowhere near rejecting the
    second, although the observed value itself is equally likely under
    both.
    """
    alphabet = (1, 2, 3, 4)
    sharp = FiniteDistribution(
        alphabet,
        (Fraction(1, 100), Fraction(1, 50), Fraction(57, 100), Fraction(2, 5)),
    )
    heavy = FiniteDistribution(
        alphabet,
        (Fraction(2, 5), Fraction(1, 50), Fraction(29, 100), Fraction(29, 100)),
    )
    return sharp, heavy, 2

