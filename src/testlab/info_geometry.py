"""Divergence-based testing over finite alphabets.

The log likelihood ratio of a sample equals n times the difference of the
empirical distribution's divergences from the two hypotheses; that single
identity links the ratio threshold, the maximum-a-posteriori rule and the
nearest-hypothesis rule, and everything in this module leans on it. The
convention 0*ln(0) = 0 applies throughout, and a p-positive symbol with
zero q-mass makes the divergence exactly +inf. A sample is counted once,
against the hypothesis's alphabet; its evidence and its divergences are
computed from those counts, and a sample's two divergences share one list
of its log terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .dist import (
    EmpiricalDistribution,
    FiniteDistribution,
    _count,
    _size,
    empirical,
    log_probability,
    require_same_alphabet,
)
from .errors import EmptySampleError, InputError
from .evidential import (
    LogEvidence,
    Priors,
    Verdict,
    _check_threshold,
    _evidence,
    threshold_verdict,
)


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
    drop out by the 0*ln(0) convention regardless of q. Logs are the cached
    ``log_probs``, and for a count c that of the reduced c/n, as
    ``log_probability`` gives it: log(c) - log(n) can differ in the last bit.
    """
    if isinstance(p, EmpiricalDistribution):
        if p.n == 0:
            raise EmptySampleError("divergence of an empty sample is undefined")
        terms = _empirical_terms(p.counts, p.n)
    else:
        terms = zip(map(float, p.probs), p.log_probs)
    require_same_alphabet(p, q)
    return Divergence(_divergence(terms, q.log_probs))


def _empirical_terms(counts, n: int) -> list:
    """(c/n, ln(c/n)) for each count c of a sample of n > 0 symbols."""
    return [(c / n, math.log(c // g) - math.log(n // g) if c else -math.inf)
            for c in counts for g in (math.gcd(c, n),)]


def _divergence(terms, q_logs) -> float:
    """sum w (log_w - log_q) over p's (w, log_w) terms and q's logs."""
    total = 0.0
    for (w, log_w), log_q in zip(terms, q_logs):
        if log_w == -math.inf:  # zero mass, however small a float w may be
            continue
        if log_q == -math.inf:
            return math.inf
        total += w * (log_w - log_q)
    if -1e-12 < total < 0.0:
        # sums of signed terms can land a hair below zero; the true value
        # cannot
        total = 0.0
    return total


def _evidence_and_divergences(
    h: FiniteDistribution, k: FiniteDistribution, xs: Sequence
) -> tuple[LogEvidence, float, float]:
    """Count xs once: (evidence, D(emp||h), D(emp||k)), divergences 0 if
    empty; both divergences read one list of the sample's terms."""
    emp = empirical(xs, h.alphabet)
    ev = _evidence(h, k, emp.counts, emp.n)
    if emp.n == 0:
        return ev, 0.0, 0.0
    terms = _empirical_terms(emp.counts, emp.n)
    return ev, _divergence(terms, h.log_probs), _divergence(terms, k.log_probs)


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
    _check_threshold(s)
    ev, d_h, d_k = _evidence_and_divergences(h, k, xs)
    margin = math.log(s) / n
    if ev.exact_ratio is not None:
        accept_k = threshold_verdict(ev, s) is Verdict.ACCEPT_K
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
    n = _size(n, "n", least=1)
    if not 0 < delta < 1:
        raise InputError(f"delta must be in (0, 1), got {delta!r}")
    # -ln(delta), not ln(1/delta): 1/delta overflows to inf for a subnormal
    return ((alphabet_size - 1) * math.log(n + 1) - math.log(delta)) / n


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
    statistic = _divergence(_empirical_terms(_count(xs, h._index), n), h.log_probs)
    radius = cfg.radius(n, h.size)
    decision = (
        UniversalDecision.ACCEPT_H if statistic <= radius else UniversalDecision.REJECT_H
    )
    return HoeffdingResult(decision, statistic, radius, n)
