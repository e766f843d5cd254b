"""Decision-theoretic testing for the two-Gaussian scenario.

Everything here is one-sided with known sigma: the symmetric midpoint rule
with its total error, the fixed-alpha test that minimises beta, the
four-way solver tying together alpha, beta, effect and sample size, and
per-test alpha adjustments for families of tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .dist import GaussianPair, _size, gaussian_cdf, gaussian_quantile
from .errors import InputError, NoSolutionError, PowerSpecError, ZeroEffectError

ADJUSTMENT_SCHEMES = ("bonferroni", "sidak")


@dataclass(frozen=True)
class DecisionRule:
    """Decide K iff the sample mean is at least the cutoff."""

    cutoff: float
    n: int


@dataclass(frozen=True)
class ErrorRates:
    alpha: float
    beta: float
    total: float


@dataclass(frozen=True)
class PowerSpec:
    """The quadruple (alpha, beta, eta, n), at most one field unknown.

    None marks the unknown; solve_power takes a spec with exactly one and
    returns it completed. Known error rates must lie in (0, 0.5] — designs
    worse than a coin flip are rejected — and eta is the absolute effect on
    the observation scale, with sigma known.
    """

    alpha: Optional[float] = None
    beta: Optional[float] = None
    eta: Optional[float] = None
    n: Optional[int] = None
    sigma: float = 1.0

    def __post_init__(self):
        unknowns = self.unknowns
        if len(unknowns) > 1:
            raise PowerSpecError(f"at most one unknown allowed, got {unknowns}")
        if not 0 < self.sigma < math.inf:
            raise PowerSpecError(f"sigma must be positive and finite, got {self.sigma!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not 0 < value <= 0.5:
                raise PowerSpecError(f"{name} must be in (0, 0.5], got {value!r}")
        if self.eta is not None and not self.eta >= 0:  # NaN too
            raise PowerSpecError(f"eta must be nonnegative, got {self.eta!r}")
        if self.n is not None:
            if int(self.n) != self.n or self.n < 1:
                raise PowerSpecError(f"n must be a positive integer, got {self.n!r}")
            object.__setattr__(self, "n", int(self.n))

    @property
    def unknowns(self) -> list[str]:
        return [
            name
            for name in ("alpha", "beta", "eta", "n")
            if getattr(self, name) is None
        ]

    @property
    def unknown(self) -> str:
        unknowns = self.unknowns
        if len(unknowns) != 1:
            raise PowerSpecError(
                f"exactly one unknown required, got {unknowns or 'none'}"
            )
        return unknowns[0]


def midpoint_rule(pair: GaussianPair, n: int) -> tuple[DecisionRule, ErrorRates]:
    """Symmetric rule cutting at (mu_h + mu_k)/2.

    Both error rates equal Phi(-eta sqrt(n) / (2 sigma)), so the total
    error 2*Phi(...) shrinks to zero as n grows for any positive effect.
    """
    n = _size(n, "n", least=1)
    if pair.effect == 0:
        raise ZeroEffectError("midpoint rule is degenerate when the means coincide")
    cutoff = 0.5 * (pair.mu_h + pair.mu_k)
    rate = gaussian_cdf(-pair.effect * math.sqrt(n) / (2.0 * pair.sigma))
    return DecisionRule(cutoff, n), ErrorRates(rate, rate, 2.0 * rate)


def np_test(pair: GaussianPair, n: int, alpha: float) -> tuple[DecisionRule, ErrorRates]:
    """Fixed-alpha one-sided test; among rules with type-I error <= alpha
    this cutoff minimises beta."""
    n = _size(n, "n", least=1)
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0, 1), got {alpha!r}")
    z = -gaussian_quantile(alpha)  # z_{1-alpha}; 1 - alpha is 1.0 for alpha < 5.5e-17
    scale = pair.sigma / math.sqrt(n)
    cutoff = pair.mu_h + z * scale
    beta = gaussian_cdf(z - pair.effect * math.sqrt(n) / pair.sigma)
    return DecisionRule(cutoff, n), ErrorRates(alpha, beta, alpha + beta)


def _named_rule(pair: GaussianPair, n: int, alpha: Optional[float]) -> tuple:
    """(name, rule, rates) of the np subcommand's and scenario's rule: the
    midpoint rule without alpha, the fixed-alpha test with it."""
    if alpha is None:
        return ("midpoint", *midpoint_rule(pair, n))
    return ("fixed-alpha", *np_test(pair, n, alpha))


def solve_power(spec: PowerSpec) -> PowerSpec:
    """Fill in the one unknown of (alpha, beta, eta, n).

    The three known values pin the fourth through
    z_{1-alpha} + z_{1-beta} = eta * sqrt(n) / sigma; n is rounded up to
    the next integer (with a hair of slack so an exact relation is not
    pushed to n+1 by float noise).
    """
    unknown = spec.unknown
    sigma = spec.sigma
    # z_{1-p} is taken as -z_p and an upper tail as Phi(-z): 1 - p is 1.0
    # for p < 5.5e-17, and 1 - Phi(z) cancels to 0 above z = 8.3
    if unknown in ("n", "eta"):
        z_sum = -gaussian_quantile(spec.alpha) - gaussian_quantile(spec.beta)
        if unknown == "eta":
            return replace(spec, eta=z_sum * sigma / math.sqrt(spec.n))
        if spec.eta == 0:
            raise NoSolutionError("cannot size a study for a zero effect")
        try:  # the square overflows, or ceil meets an infinite z_sum / eta
            exact = (z_sum * sigma / spec.eta) ** 2
            return replace(spec, n=max(1, math.ceil(exact - 1e-9)))
        except OverflowError:
            raise NoSolutionError(
                f"the n for eta {spec.eta!r} lies beyond the float range"
            ) from None
    known = spec.beta if unknown == "alpha" else spec.alpha
    # z = eta sqrt(n) / sigma - z_{1-known}
    z = spec.eta * math.sqrt(spec.n) / sigma + gaussian_quantile(known)
    rate = gaussian_cdf(-z)
    if not 0 < rate <= 0.5:
        raise NoSolutionError(f"required {unknown} {rate:.6g} falls outside (0, 0.5]")
    return replace(spec, **{unknown: rate})


def adjust_alpha(family_alpha: float, tests: int, scheme: str = "bonferroni") -> float:
    """Per-test alpha keeping the family-wise error under family_alpha."""
    if not 0 < family_alpha < 1:
        raise InputError(f"family alpha must be in (0, 1), got {family_alpha!r}")
    tests = _size(tests, "number of tests", least=1)
    if scheme == "bonferroni":
        return family_alpha / tests
    if scheme == "sidak":
        return 1.0 - (1.0 - family_alpha) ** (1.0 / tests)
    raise InputError(f"unknown scheme {scheme!r}; expected one of {ADJUSTMENT_SCHEMES}")
