"""Distribution primitives shared by every testing module.

Finite distributions carry either exact rational probabilities or floats.
Rational mode keeps combinatorial tail sums and likelihood ratios free of
rounding altogether; float log-space is used everywhere Monte Carlo speed
matters, and log-of-fraction helpers stay finite far below the double
underflow threshold. Sampling is a pure function of
(distribution, n, seed), so results never depend on scheduling or on how
replications are split across workers.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    AlphabetMismatchError,
    DistributionError,
    EmptySampleError,
    InputError,
    UnknownSymbolError,
)

Probability = Union[Fraction, float]

_SQRT2 = math.sqrt(2.0)


def parse_probability(text: str) -> Fraction:
    """Parse a decimal or fraction string ("0.25", "1/4", "2.5e-3") exactly."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(decimal.Decimal(text))
    except (decimal.InvalidOperation, ValueError) as exc:
        raise InputError(f"cannot parse probability {text!r}") from exc


def as_probability(value) -> Probability:
    """Coerce to an exact Fraction where possible, float otherwise."""
    if isinstance(value, bool):
        raise InputError("booleans are not probabilities")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_probability(value)
    if isinstance(value, float):
        return value
    raise InputError(f"cannot interpret {value!r} as a probability")


def log_probability(p: Probability) -> float:
    """Natural log of a probability; exactly -inf for zero mass.

    Fractions are split into numerator and denominator so values far below
    the double underflow threshold still get a finite log.
    """
    if p < 0:
        raise InputError(f"negative probability {p!r}")
    if p == 0:
        return float("-inf")
    if isinstance(p, Fraction):
        return math.log(p.numerator) - math.log(p.denominator)
    return math.log(p)


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector over a finite, ordered alphabet.

    All probabilities are either Fractions (exact mode: the vector must sum
    to exactly 1) or floats (the sum must be within 1e-12 of 1). The
    position of a symbol in ``alphabet`` doubles as its total order for
    tail computations.
    """

    alphabet: tuple
    probs: tuple

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        raw = tuple(self.probs)
        if len(alphabet) == 0:
            raise DistributionError("alphabet must not be empty")
        if len(alphabet) != len(raw):
            raise DistributionError(
                f"{len(alphabet)} symbols but {len(raw)} probabilities"
            )
        try:
            unique = len(set(alphabet))
        except TypeError as exc:
            raise DistributionError("alphabet labels must be hashable") from exc
        if unique != len(alphabet):
            raise DistributionError("alphabet labels must be unique")
        probs = tuple(as_probability(p) for p in raw)
        if any(isinstance(p, float) for p in probs):
            probs = tuple(float(p) for p in probs)
            exact = False
        else:
            exact = True
        for p in probs:
            if p < 0:
                raise DistributionError(f"negative probability {p!r}")
            if isinstance(p, float) and not math.isfinite(p):
                raise DistributionError(f"non-finite probability {p!r}")
        total = sum(probs)
        if exact:
            if total != 1:
                raise DistributionError(f"probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(alphabet)})

    @classmethod
    def uniform(cls, alphabet: Sequence) -> "FiniteDistribution":
        labels = tuple(alphabet)
        p = Fraction(1, len(labels))
        return cls(labels, (p,) * len(labels))

    @property
    def size(self) -> int:
        return len(self.alphabet)

    @property
    def is_exact(self) -> bool:
        return not isinstance(self.probs[0], float)

    def index(self, x) -> int:
        try:
            return self._index[x]
        except (KeyError, TypeError):
            raise UnknownSymbolError(f"symbol {x!r} not in alphabet") from None

    def prob(self, x) -> Probability:
        return self.probs[self.index(x)]

    def log_prob(self, x) -> float:
        """ln P(x); -inf exactly when the symbol has zero mass."""
        return log_probability(self.prob(x))

    def support(self) -> tuple:
        return tuple(x for x, p in zip(self.alphabet, self.probs) if p > 0)

    def float_probs(self) -> np.ndarray:
        return np.array([float(p) for p in self.probs], dtype=np.float64)

    def _float_cdf(self) -> np.ndarray:
        cached = self.__dict__.get("_cdf")
        if cached is None:
            cached = np.cumsum(self.float_probs())
            object.__setattr__(self, "_cdf", cached)
        return cached


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Per-symbol counts observed in a sample of size n."""

    alphabet: tuple
    counts: tuple
    n: int

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        counts = tuple(int(c) for c in self.counts)
        if len(alphabet) != len(counts):
            raise DistributionError("one count per alphabet symbol required")
        if any(c < 0 for c in counts):
            raise DistributionError("counts must be nonnegative")
        if sum(counts) != self.n:
            raise DistributionError(f"counts sum to {sum(counts)}, not n={self.n}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(alphabet)})

    def count(self, x) -> int:
        try:
            return self.counts[self._index[x]]
        except (KeyError, TypeError):
            raise UnknownSymbolError(f"symbol {x!r} not in alphabet") from None

    def frequencies(self) -> FiniteDistribution:
        """Relative frequencies as an exact rational distribution."""
        if self.n == 0:
            raise EmptySampleError("no frequencies for an empty sample")
        return FiniteDistribution(
            self.alphabet, tuple(Fraction(c, self.n) for c in self.counts)
        )


def empirical(xs: Sequence, alphabet: Sequence) -> EmpiricalDistribution:
    """Count symbol multiplicities; every symbol must be in the alphabet."""
    labels = tuple(alphabet)
    index = {x: i for i, x in enumerate(labels)}
    counts = [0] * len(labels)
    for x in xs:
        try:
            counts[index[x]] += 1
        except (KeyError, TypeError):
            raise UnknownSymbolError(f"symbol {x!r} not in alphabet") from None
    return EmpiricalDistribution(labels, tuple(counts), len(xs))


def _check_normal(sigma, *means) -> None:
    if not 0 < sigma < math.inf:
        raise DistributionError(f"sigma must be positive and finite, got {sigma!r}")
    if not all(map(math.isfinite, means)):
        raise DistributionError(f"means must be finite, got {means!r}")


@dataclass(frozen=True)
class Gaussian:
    """One normal component N(mean, sigma)."""

    mean: float
    sigma: float

    def __post_init__(self):
        _check_normal(self.sigma, self.mean)

    def log_density(self, x: float) -> float:
        z = (x - self.mean) / self.sigma
        return -0.5 * z * z - math.log(self.sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class GaussianPair:
    """Two-normal testing scenario N(mu_h, sigma) vs N(mu_k, sigma).

    The effect mu_k - mu_h must be nonnegative; pass the hypotheses the
    other way round rather than relying on silent reorientation.
    """

    mu_h: float
    mu_k: float
    sigma: float = 1.0

    def __post_init__(self):
        _check_normal(self.sigma, self.mu_h, self.mu_k)
        if self.mu_k < self.mu_h:
            raise DistributionError(
                f"effect mu_k - mu_h = {self.mu_k - self.mu_h!r} is negative; "
                "swap the hypotheses"
            )

    @property
    def effect(self) -> float:
        return self.mu_k - self.mu_h

    @property
    def h(self) -> Gaussian:
        return Gaussian(self.mu_h, self.sigma)

    @property
    def k(self) -> Gaussian:
        return Gaussian(self.mu_k, self.sigma)

    def log_density_ratio(self, x: float) -> float:
        """ln of the K density over the H density at x."""
        return ((x - self.mu_h) ** 2 - (x - self.mu_k) ** 2) / (2.0 * self.sigma**2)


@dataclass(frozen=True)
class Seed:
    """Root of a reproducible random stream.

    Identical (root, stream) pairs yield bit-identical draws no matter how
    the surrounding work is ordered or parallelised. Derived streams
    (``rng(i)`` for replication i) depend only on the values, never on
    call order, which is what makes chunked Monte Carlo runs merge-safe.
    """

    root: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.root) < 2**64:
            raise InputError(f"seed root must be a 64-bit unsigned int, got {self.root!r}")
        if int(self.stream) < 0:
            raise InputError(f"stream id must be nonnegative, got {self.stream!r}")
        object.__setattr__(self, "root", int(self.root))
        object.__setattr__(self, "stream", int(self.stream))

    def rng(self, *path: int) -> np.random.Generator:
        """Generator for this stream, optionally extended by sub-counters."""
        ss = np.random.SeedSequence(entropy=self.root, spawn_key=(self.stream, *path))
        return np.random.default_rng(ss)


def _finite_indices(d: FiniteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid alphabet indices drawn from d via inverse-CDF lookup."""
    cdf = d._float_cdf()
    u = rng.random(n)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, d.size - 1)


def sample(d, n: int, seed: Seed):
    """n iid draws: a list of symbols for a FiniteDistribution, an ndarray
    of reals for a Gaussian component."""
    if n < 1:
        raise InputError(f"sample size must be at least 1, got {n}")
    rng = seed.rng()
    if isinstance(d, FiniteDistribution):
        idx = _finite_indices(d, n, rng)
        alphabet = d.alphabet
        return [alphabet[i] for i in idx]
    if isinstance(d, Gaussian):
        return rng.normal(d.mean, d.sigma, size=n)
    raise InputError(f"cannot sample from {type(d).__name__}")


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / _SQRT2)


def gaussian_quantile(p: float) -> float:
    """Inverse standard normal CDF, by bisection to double precision."""
    if not 0.0 < p < 1.0:
        raise InputError(f"quantile needs p in (0, 1), got {p!r}")
    lo, hi = -13.0, 13.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if gaussian_cdf(mid) < p:
            lo = mid
        else:
            hi = mid


def require_same_alphabet(p, q) -> None:
    if tuple(p.alphabet) != tuple(q.alphabet):
        raise AlphabetMismatchError(
            f"alphabets differ: {p.alphabet!r} vs {q.alphabet!r}"
        )
