"""Two-hypothesis evidential inference.

The running log likelihood ratio ln r_n = sum ln P_K(x_i)/P_H(x_i) is the
central object. It depends on the sample only through its symbol counts,
so batch evidence (``evidence_from_sample``, ``evidence_from_counts``) is
computed from one counting pass: r_n = prod (P_K(x)/P_H(x))**c_x over the
at most k counted symbols. A sample is counted once, against H's alphabet,
and no empirical distribution is built. ``update`` folds in one
observation at a time and is meant for streaming, where the counts are not
known in advance, as a one-count step of the same fold, so batch and
streaming evidence share one support rule and one arithmetic. When both
hypotheses are rational, the ratio itself is carried as an exact Fraction
so batch order cannot perturb anything; in float mode the log increments,
read from each distribution's cached ``log_probs``, are summed directly.
Support violations are mapped to exact +/- infinity: an observation
impossible under H is decisive for K, and vice versa. Zero mass is read
off the same cached logs, which are -inf exactly there.

A short sample's exact ratio is the unreduced product of each
distribution's cached numerator and denominator ints, reduced by
Fraction. A long one's would make Fraction run a gcd and a division on
big integers, which CPython takes quadratic time for, so it is built in
lowest terms from the per-symbol integers instead (``_long_ratio``) and
handed to Fraction as a ``numbers.Rational``, whose fields that contract
says are already reduced: Fraction copies them and runs no gcd.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import dist
from .dist import (
    FiniteDistribution,
    GaussianPair,
    Probability,
    _count,
    _counts,
    _show,
    as_probability,
    log_probability,
    require_same_alphabet,
)
from .errors import ImpossibleObservationError, InputError

if TYPE_CHECKING:
    import numpy as np

#: Likelihood-ratio thresholds commonly treated as "moderate" and "strong".
ROYALL_THRESHOLDS = (8.0, 16.0)


class Verdict(Enum):
    ACCEPT_K = "accept_k"
    ACCEPT_H = "accept_h"
    CONTINUE = "continue"


class GradeStrength(Enum):
    BARE_COMMENT = "bare comment"
    SUBSTANTIAL = "substantial"
    STRONG = "strong"
    VERY_STRONG = "very strong"
    DECISIVE = "decisive"


@dataclass(frozen=True)
class EvidenceGrade:
    strength: GradeStrength
    favors: str  # "H" or "K"

    def __str__(self) -> str:
        return f"{self.strength.value} evidence for {self.favors}"


@dataclass(frozen=True)
class Priors:
    """Prior probabilities for H and K; both hypotheses must be possible."""

    pi_h: Probability
    pi_k: Optional[Probability] = None

    def __post_init__(self):
        pi_h = as_probability(self.pi_h)
        pi_k = self.pi_k
        if pi_k is None:
            pi_k = (1 - pi_h) if isinstance(pi_h, Fraction) else 1.0 - pi_h
        else:
            pi_k = as_probability(pi_k)
        if not (0 < pi_h < 1 and 0 < pi_k < 1):
            raise InputError(
                f"priors must lie strictly inside (0, 1): {_show(pi_h)}, {_show(pi_k)}"
            )
        total = pi_h + pi_k
        if isinstance(pi_h, Fraction) and isinstance(pi_k, Fraction):
            if total != 1:
                raise InputError(f"priors sum to {_show(total)}, not 1")
        elif abs(float(total) - 1.0) > 1e-12:
            raise InputError(f"priors sum to {total!r}, not 1")
        object.__setattr__(self, "pi_h", pi_h)
        object.__setattr__(self, "pi_k", pi_k)

    @property
    def log_odds(self) -> float:
        """ln(pi_k / pi_h)."""
        return log_probability(self.pi_k) - log_probability(self.pi_h)


@dataclass(frozen=True)
class LogEvidence:
    """Running ln r_n after n observations.

    ``falsified`` names the hypothesis whose support excluded some observed
    symbol (then ln r_n is exactly +inf or -inf). ``exact_ratio`` is r_n as
    a Fraction while every update has been rational; it becomes None the
    first time a float probability or a density enters.
    """

    sum_log_lr: float = 0.0
    n: int = 0
    falsified: Optional[str] = None
    exact_ratio: Optional[Fraction] = Fraction(1)

    @property
    def ratio(self) -> float:
        """r_n as a float; inf once ln r_n is beyond the double range."""
        return _exp_or_inf(self.sum_log_lr)


_EMPTY = LogEvidence()


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


#: A fold of fewer counts builds the unreduced ratio and lets Fraction reduce
#: it; from this many on, the product's size picks the route.
_MANY_COUNTS = 64
#: Bits of the unreduced numerator and denominator together, per symbol
#: seen, from which building the ratio in lowest terms beats Fraction's
#: quadratic gcd, when no symbol's P_K/P_H has a numerator or denominator
#: wider than _NARROW bits. The refinement's cost grows with the symbols
#: seen and with that width w: wider ones cross over near sqrt(w / _NARROW)
#: times as many bits.
_GCD_BITS_PER_SYMBOL = 1000
_NARROW = 16


class _LowestTerms(NamedTuple):
    """A numerator and a positive denominator that share no factor.

    The numbers.Rational contract says numerator and denominator are in
    lowest terms, so Fraction(_LowestTerms(p, q)) copies the two fields and
    runs no gcd, on every Python this supports. (Fraction's private
    ``_normalize`` flag, which did the same, is gone from 3.12.)
    """

    numerator: int
    denominator: int


numbers.Rational.register(_LowestTerms)


def _long_ratio(h: FiniteDistribution, k: FiniteDistribution, seen) -> Optional[Fraction]:
    """prod (P_K/P_H)**c over (i, c) in seen, in lowest terms with no gcd or
    division on big integers; None when the unreduced product is small
    enough for Fraction's own reduction to be faster.

    P_K/P_H = (pk.num*ph.den)/(pk.den*ph.num), so the ratio is prod v**E_v
    over these small integers v, E_v counting c for each symbol with v
    above the line and -c below. Two factors of opposite sign, x**e and
    y**f with g = gcd(x, y) > 1, are refined into (x/g)**e, (y/g)**f and
    g**(e + f): the product stays, the integers shrink, and so it ends with
    every factor of positive exponent coprime to every factor of negative
    one. Their two products are the numerator and the denominator.
    """
    bits, width = 0, _NARROW
    for i, c in seen:
        ph, pk = h.probs[i], k.probs[i]
        a = (pk.numerator * ph.denominator).bit_length()
        b = (pk.denominator * ph.numerator).bit_length()
        bits += c * (a + b)
        width = max(width, a, b)
    if bits < _GCD_BITS_PER_SYMBOL * len(seen) * math.sqrt(width / _NARROW):
        return None
    exps = {}
    for i, c in seen:
        ph, pk = h.probs[i], k.probs[i]
        for v, e in ((pk.numerator, c), (ph.denominator, c),
                     (pk.denominator, -c), (ph.numerator, -c)):
            exps[v] = exps.get(v, 0) + e
    up, down = {}, {}  # no key of one is a key of the other, nor shares a factor
    todo = [(v, e) for v, e in exps.items() if e and v > 1]
    while todo:
        x, e = todo.pop()
        same, other = (up, down) if e > 0 else (down, up)
        for y in other:
            g = math.gcd(x, y)
            if g > 1:
                f = other.pop(y)
                todo += ((v, d) for v, d in ((g, e + f), (x // g, e), (y // g, f)) if d and v > 1)
                break
        else:
            same[x] = same.get(x, 0) + e
    return Fraction(_LowestTerms(math.prod(v**e for v, e in up.items()),
                                 math.prod(v**-e for v, e in down.items())))


def _fold(
    ev: LogEvidence, h: FiniteDistribution, k: FiniteDistribution, seen
) -> LogEvidence:
    """ev extended by a sample in which h.alphabet[i] occurred c > 0 times
    for each (i, c) in seen: the one place the support rule and the exact and
    float ratio arithmetic are written, at a cost set by len(seen)."""
    h_new = k_new = False
    n = ev.n
    lh, lk = h.log_probs, k.log_probs
    for i, c in seen:
        n += c
        h_zero, k_zero = lh[i] == -math.inf, lk[i] == -math.inf
        if h_zero or k_zero:
            if h_zero and k_zero:
                raise ImpossibleObservationError(
                    f"symbol {h.alphabet[i]!r} has probability zero under both hypotheses"
                )
            h_new = h_new or h_zero
            k_new = k_new or k_zero
    if (h_new or ev.falsified == "H") and (k_new or ev.falsified == "K"):
        raise ImpossibleObservationError(
            "observations are jointly impossible under both hypotheses"
        )
    if h_new:
        return LogEvidence(math.inf, n, "H", None)
    if k_new:
        return LogEvidence(-math.inf, n, "K", None)
    if ev.falsified is not None:
        # further finite factors cannot move an exact infinity
        return LogEvidence(ev.sum_log_lr, n, ev.falsified, None)
    if ev.exact_ratio is not None and h.is_exact and k.is_exact:
        ratio = _long_ratio(h, k, seen) if n - ev.n >= _MANY_COUNTS else None
        if ratio is None:
            num = den = 1
            hp, kp = h._parts, k._parts
            for i, c in seen:
                (h_num, h_den), (k_num, k_den) = hp[i], kp[i]
                num *= (k_num * h_den) ** c
                den *= (k_den * h_num) ** c
            # normalised once, by a gcd that is cheap at this size; a running
            # ratio's product then needs only small gcds
            ratio = Fraction(num, den)
        if ev.exact_ratio != 1:
            ratio *= ev.exact_ratio
        return LogEvidence(log_probability(ratio), n, None, ratio)
    total = ev.sum_log_lr
    for i, c in seen:
        total += c * (lk[i] - lh[i])
    return LogEvidence(total, n, None, None)


def update(
    ev: LogEvidence, h: FiniteDistribution, k: FiniteDistribution, x
) -> LogEvidence:
    """Fold one observation into the evidence; returns a new value.

    Raises ImpossibleObservationError if the symbol has zero probability
    under both hypotheses, or if the batch as a whole has become impossible
    under both (one observation excluded H, another excluded K).
    """
    require_same_alphabet(h, k)
    return _fold(ev, h, k, ((h.index(x), 1),))


def update_gaussian(ev: LogEvidence, pair: GaussianPair, x: float) -> LogEvidence:
    """Fold one real observation in via the log density ratio of the pair."""
    if ev.falsified is not None:
        return LogEvidence(ev.sum_log_lr, ev.n + 1, ev.falsified, None)
    return LogEvidence(ev.sum_log_lr + pair.log_density_ratio(x), ev.n + 1, None, None)


def evidence_from_counts(
    h: FiniteDistribution, k: FiniteDistribution, counts: Sequence[int], n: int
) -> LogEvidence:
    """Evidence of a sample of size n whose symbol h.alphabet[i] occurred
    counts[i] times.

    Equals folding the sample through ``update`` in any order: H is
    falsified iff some counted symbol has zero mass under H, and K likewise.
    Raises ImpossibleObservationError if a counted symbol has zero mass
    under both hypotheses, or if the counts falsify both.
    """
    counts, n = _counts(tuple(counts), n, InputError)
    if len(counts) != h.size or min(counts) < 0 or sum(counts) != n:
        raise InputError(
            f"need {h.size} nonnegative counts summing to n={n}, got {counts!r}"
        )
    return _evidence(h, k, counts, n)


def _evidence(h: FiniteDistribution, k: FiniteDistribution, counts, n) -> LogEvidence:
    """evidence_from_counts for counts known to pass its checks, as the
    counts of a sample of n symbols over h.alphabet do."""
    if n == 0:
        return _EMPTY
    require_same_alphabet(h, k)
    return _fold(_EMPTY, h, k, [(i, c) for i, c in enumerate(counts) if c])


def evidence_from_sample(
    h: FiniteDistribution, k: FiniteDistribution, xs: Sequence
) -> LogEvidence:
    """Evidence of a whole sample, computed from its symbol counts."""
    return _evidence(h, k, _count(xs, h._index), len(xs))


def _strength_for_h(r) -> GradeStrength:
    # cutpoint values grade to the stronger category
    if r <= 0.01:
        return GradeStrength.DECISIVE
    if r <= 0.03:
        return GradeStrength.VERY_STRONG
    if r <= 0.1:
        return GradeStrength.STRONG
    if r <= 0.3:
        return GradeStrength.SUBSTANTIAL
    return GradeStrength.BARE_COMMENT


def grade(r_n) -> EvidenceGrade:
    """Evidence category for a likelihood ratio, graded symmetrically.

    Ratios above 1 are graded on 1/r_n and oriented toward K; exactly 1 is
    the neutral boundary and leans K, matching the tie rule of
    threshold_verdict.
    """
    if isinstance(r_n, float) and math.isnan(r_n):
        raise InputError("likelihood ratio is NaN")
    if not dist._holds(lambda r: not r < 0, r_n):
        raise InputError(f"likelihood ratio must be nonnegative, got {r_n!r}")
    if r_n == math.inf:
        return EvidenceGrade(GradeStrength.DECISIVE, "K")
    if r_n > 1:
        return EvidenceGrade(_strength_for_h(1 / r_n), "K")
    if r_n == 1:
        return EvidenceGrade(GradeStrength.BARE_COMMENT, "K")
    return EvidenceGrade(_strength_for_h(r_n), "H")


def _check_threshold(s) -> None:
    """A likelihood-ratio threshold s is at least 1, and finite if a float."""
    dist._real(s, "threshold", *dist._THRESHOLD)


def threshold_verdict(ev: LogEvidence, s=8.0) -> Verdict:
    """Accept K iff r_n >= s, accept H iff r_n <= 1/s, otherwise continue.

    The boundary r_n = s accepts K. With rational evidence and a threshold
    that converts exactly, the comparison is exact.
    """
    _check_threshold(s)
    if ev.exact_ratio is not None:
        # r_n = a/b against s = c/d > 0, compared exactly as integers
        a, b = ev.exact_ratio.numerator, ev.exact_ratio.denominator
        c, d = s.as_integer_ratio()
        if a * d >= b * c:
            return Verdict.ACCEPT_K
        if a * c <= b * d:
            return Verdict.ACCEPT_H
        return Verdict.CONTINUE
    log_s = math.log(s)
    if ev.sum_log_lr >= log_s:
        return Verdict.ACCEPT_K
    if ev.sum_log_lr <= -log_s:
        return Verdict.ACCEPT_H
    return Verdict.CONTINUE


def posterior_odds(ev: LogEvidence, priors: Priors) -> float:
    """Posterior odds of K over H: r_n times the prior odds, in log space."""
    return _exp_or_inf(ev.sum_log_lr + priors.log_odds)


def posterior_prob_k(ev: LogEvidence, priors: Priors) -> float:
    """Posterior probability of K, stable for extreme log odds."""
    log_odds = ev.sum_log_lr + priors.log_odds
    return 1.0 / (1.0 + _exp_or_inf(-log_odds))


def log_ratio_table(h: FiniteDistribution, k: FiniteDistribution) -> np.ndarray:
    """Per-symbol ln P_K/P_H with exact infinities for one-sided support.

    Symbols outside both supports get NaN; they can never be drawn, so a
    NaN surfacing downstream marks a logic error rather than data.
    """
    import numpy as np

    require_same_alphabet(h, k)
    with np.errstate(invalid="ignore"):
        return np.subtract(k.log_probs, h.log_probs)
