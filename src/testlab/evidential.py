"""Two-hypothesis evidential inference.

The running log likelihood ratio ln r_n = sum ln P_K(x_i)/P_H(x_i) is the
central object. It depends on the sample only through its symbol counts,
so batch evidence (``evidence_from_sample``, ``evidence_from_counts``) is
computed from one counting pass: r_n = prod (P_K(x)/P_H(x))**c_x over the
at most k counted symbols. ``update`` folds in one observation at a time
and is meant for streaming, where the counts are not known in advance.
When both hypotheses are rational, the ratio itself is carried as an exact
Fraction so batch order cannot perturb anything; in float mode the log
increments are summed directly. Support violations are mapped to exact
+/- infinity: an observation impossible under H is decisive for K, and
vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .dist import (
    FiniteDistribution,
    GaussianPair,
    Probability,
    Seed,
    _finite_indices,
    as_probability,
    empirical,
    log_probability,
    require_same_alphabet,
)
from .errors import ImpossibleObservationError, InputError
from .montecarlo import MCEstimate, rate_estimate

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
            raise InputError(f"priors must lie strictly inside (0, 1): {pi_h!r}, {pi_k!r}")
        total = pi_h + pi_k
        if isinstance(pi_h, Fraction) and isinstance(pi_k, Fraction):
            if total != 1:
                raise InputError(f"priors sum to {total}, not 1")
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


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_fraction(r: Fraction) -> float:
    return math.log(r.numerator) - math.log(r.denominator)


def update(
    ev: LogEvidence, h: FiniteDistribution, k: FiniteDistribution, x
) -> LogEvidence:
    """Fold one observation into the evidence; returns a new value.

    Raises ImpossibleObservationError if the symbol has zero probability
    under both hypotheses, or if the batch as a whole has become impossible
    under both (one observation excluded H, another excluded K).
    """
    require_same_alphabet(h, k)
    ph = h.prob(x)
    pk = k.prob(x)
    if ph == 0 and pk == 0:
        raise ImpossibleObservationError(
            f"symbol {x!r} has probability zero under both hypotheses"
        )
    if ph == 0:
        if ev.falsified == "K":
            raise ImpossibleObservationError(
                "observations are jointly impossible under both hypotheses"
            )
        return LogEvidence(math.inf, ev.n + 1, "H", None)
    if pk == 0:
        if ev.falsified == "H":
            raise ImpossibleObservationError(
                "observations are jointly impossible under both hypotheses"
            )
        return LogEvidence(-math.inf, ev.n + 1, "K", None)
    if ev.falsified is not None:
        # the ratio is pinned at an exact infinity; further finite factors
        # cannot move it
        return LogEvidence(ev.sum_log_lr, ev.n + 1, ev.falsified, None)
    if ev.exact_ratio is not None and h.is_exact and k.is_exact:
        ratio = ev.exact_ratio * pk / ph
        return LogEvidence(_log_fraction(ratio), ev.n + 1, None, ratio)
    increment = log_probability(pk) - log_probability(ph)
    return LogEvidence(ev.sum_log_lr + increment, ev.n + 1, None, None)


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
    counts = tuple(counts)
    if len(counts) != h.size or min(counts) < 0 or sum(counts) != n:
        raise InputError(
            f"need {h.size} nonnegative counts summing to n={n}, got {counts!r}"
        )
    if n == 0:
        return LogEvidence()
    require_same_alphabet(h, k)
    seen = [
        (x, c, ph, pk)
        for x, c, ph, pk in zip(h.alphabet, counts, h.probs, k.probs)
        if c
    ]
    h_excluded = k_excluded = False
    for x, _, ph, pk in seen:
        # such a symbol also excludes both below; raising here names it
        if ph == 0 and pk == 0:
            raise ImpossibleObservationError(
                f"symbol {x!r} has probability zero under both hypotheses"
            )
        h_excluded = h_excluded or ph == 0
        k_excluded = k_excluded or pk == 0
    if h_excluded and k_excluded:
        raise ImpossibleObservationError(
            "observations are jointly impossible under both hypotheses"
        )
    if h_excluded:
        return LogEvidence(math.inf, n, "H", None)
    if k_excluded:
        return LogEvidence(-math.inf, n, "K", None)
    if h.is_exact and k.is_exact:
        # one normalisation at the end instead of one per factor
        num = den = 1
        for _, c, ph, pk in seen:
            num *= (pk.numerator * ph.denominator) ** c
            den *= (pk.denominator * ph.numerator) ** c
        ratio = Fraction(num, den)
        return LogEvidence(_log_fraction(ratio), n, None, ratio)
    total = 0.0
    for _, c, ph, pk in seen:
        total += c * (log_probability(pk) - log_probability(ph))
    return LogEvidence(total, n, None, None)


def evidence_from_sample(
    h: FiniteDistribution, k: FiniteDistribution, xs: Sequence
) -> LogEvidence:
    """Evidence of a whole sample, computed from its symbol counts."""
    emp = empirical(xs, h.alphabet)
    return evidence_from_counts(h, k, emp.counts, emp.n)


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
    if r_n < 0:
        raise InputError(f"likelihood ratio must be nonnegative, got {r_n!r}")
    if r_n == math.inf:
        return EvidenceGrade(GradeStrength.DECISIVE, "K")
    if r_n > 1:
        return EvidenceGrade(_strength_for_h(1 / r_n), "K")
    if r_n == 1:
        return EvidenceGrade(GradeStrength.BARE_COMMENT, "K")
    return EvidenceGrade(_strength_for_h(r_n), "H")


def threshold_verdict(ev: LogEvidence, s=8.0) -> Verdict:
    """Accept K iff r_n >= s, accept H iff r_n <= 1/s, otherwise continue.

    The boundary r_n = s accepts K. With rational evidence and a threshold
    that converts exactly, the comparison is exact.
    """
    if isinstance(s, float) and not math.isfinite(s):
        raise InputError(f"threshold must be finite, got {s!r}")
    if s < 1:
        raise InputError(f"threshold must be at least 1, got {s!r}")
    if ev.exact_ratio is not None:
        s_exact = s if isinstance(s, Fraction) else Fraction(s)
        if ev.exact_ratio >= s_exact:
            return Verdict.ACCEPT_K
        if ev.exact_ratio <= 1 / s_exact:
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
    if log_odds == math.inf:
        return 1.0
    if log_odds == -math.inf:
        return 0.0
    return 1.0 / (1.0 + math.exp(-log_odds))


def log_ratio_table(h: FiniteDistribution, k: FiniteDistribution) -> np.ndarray:
    """Per-symbol ln P_K/P_H with exact infinities for one-sided support.

    Symbols outside both supports get NaN; they can never be drawn, so a
    NaN surfacing downstream marks a logic error rather than data.
    """
    require_same_alphabet(h, k)
    out = np.empty(h.size, dtype=np.float64)
    for i, (ph, pk) in enumerate(zip(h.probs, k.probs)):
        if ph == 0 and pk == 0:
            out[i] = math.nan
        elif ph == 0:
            out[i] = math.inf
        elif pk == 0:
            out[i] = -math.inf
        else:
            out[i] = log_probability(pk) - log_probability(ph)
    return out


def robbins_violation_probability(
    h: FiniteDistribution,
    k: FiniteDistribution,
    s: float,
    horizon: int,
    reps: int,
    seed: Seed,
) -> MCEstimate:
    """Fraction of H-generated paths whose likelihood ratio ever reaches s
    within the horizon.

    However the alternative is chosen, this probability is at most 1/s,
    so an unbounded ratio threshold keeps its error guarantee without any
    look schedule. Replication i draws from seed.rng(i), so the estimate
    is reproducible and independent of how replications are batched.
    """
    if not s > 1:
        raise InputError(f"threshold must exceed 1, got {s!r}")
    if horizon < 1 or reps < 1:
        raise InputError("horizon and reps must be at least 1")
    table = log_ratio_table(h, k)
    log_s = math.log(s)
    crossed = 0
    for i in range(reps):
        rng = seed.rng(i)
        idx = _finite_indices(h, horizon, rng)
        path = np.cumsum(table[idx])
        if path.max() >= log_s:
            crossed += 1
    return rate_estimate(crossed, reps)
