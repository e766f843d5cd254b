"""Divergence-based testing over finite alphabets.

The log likelihood ratio of a sample equals n times the difference of the
empirical distribution's divergences from the two hypotheses; that single
identity links the ratio threshold, the maximum-a-posteriori rule and the
nearest-hypothesis rule, and everything in this module leans on it. The
convention 0*ln(0) = 0 applies throughout, and a p-positive symbol with
zero q-mass makes the divergence exactly +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .dist import (
    EmpiricalDistribution,
    FiniteDistribution,
    empirical,
    log_probability,
    require_same_alphabet,
)
from .errors import EmptySampleError, InputError
from .evidential import LogEvidence, Priors, Verdict, evidence_from_counts


@dataclass(frozen=True)
class Divergence:
    """A Kullback-Leibler divergence in nats; nonnegative, +inf allowed."""

    nats: float

    def __post_init__(self):
        if math.isnan(self.nats) or self.nats < 0:
            raise InputError(f"divergence must be nonnegative, got {self.nats!r}")

    def __float__(self) -> float:
        return self.nats

    @property
    def is_infinite(self) -> bool:
        return self.nats == math.inf


def kl(
    p: Union[FiniteDistribution, EmpiricalDistribution], q: FiniteDistribution
) -> Divergence:
    """D(p || q) = sum p(x) ln(p(x)/q(x)) over a shared alphabet.

    Empirical p uses the exact relative frequencies, so zero-count cells
    drop out by the 0*ln(0) convention regardless of q.
    """
    if isinstance(p, EmpiricalDistribution):
        if p.n == 0:
            raise EmptySampleError("divergence of an empty sample is undefined")
        weights = [Fraction(c, p.n) for c in p.counts]
    else:
        weights = p.probs
    require_same_alphabet(p, q)
    total = 0.0
    for w, qv in zip(weights, q.probs):
        if w == 0:
            continue
        if qv == 0:
            return Divergence(math.inf)
        total += float(w) * (log_probability(w) - log_probability(qv))
    if -1e-12 < total < 0.0:
        # sums of signed terms can land a hair below zero; the true value
        # cannot
        total = 0.0
    return Divergence(total)


def _evidence_and_divergences(
    h: FiniteDistribution, k: FiniteDistribution, xs: Sequence
) -> tuple[LogEvidence, float, float]:
    """Count xs once: (evidence, D(emp||h), D(emp||k)), divergences 0 if empty."""
    emp = empirical(xs, h.alphabet)
    ev = evidence_from_counts(h, k, emp.counts, emp.n)
    if emp.n == 0:
        return ev, 0.0, 0.0
    return ev, float(kl(emp, h)), float(kl(emp, k))


def loglr_kl_identity_check(
    h: FiniteDistribution, k: FiniteDistribution, xs: Sequence
) -> tuple[float, float]:
    """Both sides of ln r_n = n * (D(emp||h) - D(emp||k)), for audit.

    A sample that a hypothesis's support excludes drives its divergence,
    and the matching side of the identity, to an exact infinity.
    """
    ev, d_h, d_k = _evidence_and_divergences(h, k, xs)
    return ev.sum_log_lr, ev.n * (d_h - d_k)


def map_decide(
    h: FiniteDistribution, k: FiniteDistribution, priors: Priors, xs: Sequence
) -> str:
    """Maximum-a-posteriori choice between "H" and "K".

    Decides K iff ln(pi_k/pi_h) + ln r_n > 0, with an exact tie going to H.
    The equivalent divergence form ln(1/pi_h) + n D(emp||h) vs
    ln(1/pi_k) + n D(emp||k) is evaluated as well and must point the same
    way; a disagreement beyond tie-zone rounding is a logic error.
    """
    return _map_decision(priors, *_evidence_and_divergences(h, k, xs))


def _map_decision(priors: Priors, ev: LogEvidence, d_h: float, d_k: float) -> str:
    n = ev.n
    score = priors.log_odds + ev.sum_log_lr
    decision = "K" if score > 0 else "H"
    alt_score = (-log_probability(priors.pi_h) + n * d_h) - (
        -log_probability(priors.pi_k) + n * d_k
    )
    alt_decision = "K" if alt_score > 0 else "H"
    if alt_decision != decision:
        # the two scores differ only by float regrouping, whose error
        # scales with the magnitudes summed; a disagreement outside that
        # band is a logic error, inside it is an honest tie
        tolerance = 1e-9 * (1.0 + abs(priors.log_odds) + n * (abs(d_h) + abs(d_k)))
        if min(abs(score), abs(alt_score)) > tolerance:
            raise RuntimeError(
                f"decision formulations disagree: {score!r} vs {alt_score!r}"
            )
    return decision


class KlMarginVerdict(NamedTuple):
    verdict: Verdict
    margin: float
    divergence_h: float
    divergence_k: float


def lr_threshold_as_kl_margin(
    h: FiniteDistribution, k: FiniteDistribution, xs: Sequence, s=1.0
) -> KlMarginVerdict:
    """Accept K iff D(emp||h) - ln(s)/n >= D(emp||k), else accept H.

    At s = 1 this is the plain nearest-hypothesis rule; the margin ln(s)/n
    vanishes as the sample grows. The acceptance condition coincides with
    r_n >= s, so with rational hypotheses it is decided exactly by the
    rational ratio rather than by cancelling two float divergences.
    """
    n = len(xs)
    if n == 0:
        raise EmptySampleError("margin rule needs at least one observation")
    if isinstance(s, float) and not math.isfinite(s):
        raise InputError(f"threshold must be finite, got {s!r}")
    if s < 1:
        raise InputError(f"threshold must be at least 1, got {s!r}")
    ev, d_h, d_k = _evidence_and_divergences(h, k, xs)
    margin = math.log(s) / n
    if ev.exact_ratio is not None:
        s_exact = s if isinstance(s, Fraction) else Fraction(s)
        accept_k = ev.exact_ratio >= s_exact
    else:
        accept_k = d_h - margin >= d_k
    verdict = Verdict.ACCEPT_K if accept_k else Verdict.ACCEPT_H
    return KlMarginVerdict(verdict, margin, d_h, d_k)


def types_bound_radius(alphabet_size: int, n: int, delta: float) -> float:
    """Acceptance radius ((k-1) ln(n+1) + ln(1/delta)) / n.

    There are at most (n+1)**(k-1) empirical distributions of a sample of
    size n, and each one farther than c from the hypothesis has probability
    at most exp(-n c); the union bound then caps the type-I error at delta
    for every n, not just asymptotically.
    """
    if alphabet_size < 2:
        raise InputError("radius needs an alphabet of at least two symbols")
    if n < 1:
        raise InputError(f"n must be at least 1, got {n}")
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta!r}")
    return ((alphabet_size - 1) * math.log(n + 1) + math.log(1.0 / delta)) / n


@dataclass(frozen=True)
class UniversalTestConfig:
    """Significance budget plus a pluggable radius sequence n -> c_n."""

    delta: float
    radius_rule: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise InputError(f"delta must be in (0, 1), got {self.delta!r}")

    def radius(self, n: int, alphabet_size: int) -> float:
        if self.radius_rule is not None:
            return self.radius_rule(n)
        return types_bound_radius(alphabet_size, n, self.delta)


class UniversalDecision(Enum):
    ACCEPT_H = "accept_h"
    REJECT_H = "reject_h"


class HoeffdingResult(NamedTuple):
    decision: UniversalDecision
    statistic: float
    radius: float
    n: int


def hoeffding_test(
    h: FiniteDistribution, xs: Sequence, cfg: UniversalTestConfig
) -> HoeffdingResult:
    """Universal one-hypothesis test: accept H iff D(emp || h) <= c_n.

    No alternative is needed. Observing any symbol h gives zero mass to
    sends the statistic to +inf and rejects immediately.
    """
    n = len(xs)
    if n == 0:
        raise EmptySampleError("universal test needs at least one observation")
    emp = empirical(xs, h.alphabet)
    statistic = float(kl(emp, h))
    radius = cfg.radius(n, h.size)
    decision = (
        UniversalDecision.ACCEPT_H if statistic <= radius else UniversalDecision.REJECT_H
    )
    return HoeffdingResult(decision, statistic, radius, n)
