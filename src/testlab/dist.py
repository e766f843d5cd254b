"""Distribution primitives shared by every testing module.

Finite distributions carry either exact rational probabilities or floats.
Rational mode keeps combinatorial tail sums and likelihood ratios free of
rounding altogether; float log-space is used everywhere Monte Carlo speed
matters, and log-of-fraction helpers stay finite far below the double
underflow threshold. Sampling is a pure function of
(distribution, n, seed), so results never depend on scheduling or on how
replications are split across workers. numpy and ctypes are imported by the
functions that use them, so the exact layer starts without them.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

from .errors import (
    AlphabetMismatchError,
    DistributionError,
    EmptySampleError,
    InputError,
    UnknownSymbolError,
)

if TYPE_CHECKING:
    import numpy as np

Probability = Union[Fraction, float]

_SQRT2 = math.sqrt(2.0)
_MAX_EXPONENT = 4300  # parse_probability's digits stay within 10**+-this

# numpy's SeedSequence hash and PCG64 seeding step, redone so that a
# replication reseeds one generator in place (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 2**32 - 1


def parse_probability(text: str) -> Fraction:
    """Parse a decimal or fraction string ("0.25", "1/4", "2.5e-3") exactly.

    Non-finite decimals are input errors, and so are decimals with a digit
    beyond 10**+-4 300, whose powers of ten take seconds to build; the exact
    decimal of any double has at most 1 074 fractional digits.
    """
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        value = decimal.Decimal(text)
    except (ValueError, ZeroDivisionError, decimal.InvalidOperation) as exc:
        raise InputError(f"cannot parse probability {text!r}") from exc
    # as_tuple().exponent places the last digit, adjusted() the first
    if not (value.is_finite() and -_MAX_EXPONENT <= value.as_tuple().exponent
            and value.adjusted() <= _MAX_EXPONENT):
        raise InputError(
            f"cannot parse probability {text!r}: not finite, or a digit beyond "
            f"10**+-{_MAX_EXPONENT}"
        )
    return Fraction(value)


def _render(value) -> str:
    """value as testlab prints it: yes or no, a float to 12 significant
    digits, a Fraction as num/den, anything else by str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, Fraction):  # Decimal prints past str()'s 4 300-digit limit
        return f"{decimal.Decimal(value.numerator)}/{decimal.Decimal(value.denominator)}"
    return str(value)


def _show(p) -> str:
    """p for a message: a Fraction as _render prints it, less a denominator
    of 1, and anything else by repr()."""
    return _render(p).removesuffix("/1") if isinstance(p, Fraction) else repr(p)


def _size(value, what, error=InputError, least=None) -> int:
    """value, a count, as an int: a float is an error, where int() would
    truncate it, and so is a value below least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise error(f"{what} must be at least {least}, got {value}")
    return value


def _counts(counts, n, error) -> tuple:
    """(counts, n) as a tuple of ints and an int: int() would truncate 2.5
    to 2, and an exact ratio takes each count as an exponent."""
    try:
        return tuple(map(operator.index, counts)), operator.index(n)
    except TypeError:
        raise error(f"counts and n must be integers, got {counts!r} and {n!r}") from None


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
    if isinstance(p, Fraction):
        if p.numerator > 0:  # ordering a Fraction against 0 costs more than the log
            return math.log(p.numerator) - math.log(p.denominator)
    elif p > 0:
        return math.log(p)
    if p < 0:
        raise InputError(f"negative probability {p!r}")
    if p == 0:
        return float("-inf")
    return math.log(p)  # NaN


def _label_index(alphabet: tuple) -> dict:
    """Each label's position in alphabet, whose labels must be hashable and
    unique."""
    try:
        index = {x: i for i, x in enumerate(alphabet)}
    except TypeError as exc:
        raise DistributionError("alphabet labels must be hashable") from exc
    if len(index) != len(alphabet):
        raise DistributionError("alphabet labels must be unique")
    return index


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
        index = _label_index(alphabet)
        probs = tuple(as_probability(p) for p in raw)
        if any(isinstance(p, float) for p in probs):
            probs = tuple(float(p) for p in probs)
            exact = False
        else:
            exact = True
        for p in probs:
            if p < 0:
                raise DistributionError(f"negative probability {_show(p)}")
            if isinstance(p, float) and not math.isfinite(p):
                raise DistributionError(f"non-finite probability {p!r}")
        total = sum(probs)
        if exact:
            if total != 1:
                raise DistributionError(f"probabilities sum to {_show(total)}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_index", index)

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
        return self.log_probs[self.index(x)]

    def support(self) -> tuple:
        return tuple(x for x, p in zip(self.alphabet, self.probs) if p > 0)

    def float_probs(self) -> np.ndarray:
        import numpy as np

        return np.array([float(p) for p in self.probs], dtype=np.float64)

    @cached_property
    def log_probs(self) -> tuple:
        """``log_probability`` of each symbol's mass, computed once."""
        return tuple(map(log_probability, self.probs))

    @cached_property
    def _parts(self) -> tuple:
        """(numerator, denominator) of each exact mass, read once."""
        return tuple((p.numerator, p.denominator) for p in self.probs)

    @cached_property
    def _float_steps(self) -> np.ndarray:
        import numpy as np

        last_support = max(i for i, p in enumerate(self.probs) if p > 0)
        return np.cumsum(self.float_probs())[:last_support]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Per-symbol counts observed in a sample of size n."""

    alphabet: tuple
    counts: tuple
    n: int

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        counts, n = _counts(self.counts, self.n, DistributionError)
        if len(alphabet) != len(counts):
            raise DistributionError("one count per alphabet symbol required")
        if any(c < 0 for c in counts):
            raise DistributionError("counts must be nonnegative")
        if sum(counts) != n:
            raise DistributionError(f"counts sum to {sum(counts)}, not n={n}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_index", _label_index(alphabet))

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


def _count(xs: Sequence, index: dict) -> list:
    """How often each label occurs in xs, by index's label -> position map;
    every symbol must be a label."""
    counts = [0] * len(index)
    for x in xs:
        try:
            counts[index[x]] += 1
        except (KeyError, TypeError):
            raise UnknownSymbolError(f"symbol {x!r} not in alphabet") from None
    return counts


def empirical(xs: Sequence, alphabet: Sequence) -> EmpiricalDistribution:
    """Count symbol multiplicities; every symbol must be in the alphabet."""
    labels = tuple(alphabet)
    return EmpiricalDistribution(labels, tuple(_count(xs, _label_index(labels))), len(xs))


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
    Monte Carlo replications draw what ``rng(i)`` would from one generator
    per span of replications, reseeded by ``_rep_rngs`` instead of built
    anew: the span's seed words and PCG64 states are computed in numpy,
    and each replication writes its state into the generator's memory.
    """

    root: int
    stream: int = 0

    def __post_init__(self):
        root, stream = _size(self.root, "seed root"), _size(self.stream, "stream id")
        if not 0 <= root < 2**64:
            raise InputError(f"seed root must be a 64-bit unsigned int, got {self.root!r}")
        if stream < 0:
            raise InputError(f"stream id must be nonnegative, got {self.stream!r}")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "stream", stream)

    def rng(self, *path: int) -> np.random.Generator:
        """Generator for this stream, optionally extended by sub-counters."""
        import numpy as np

        ss = np.random.SeedSequence(entropy=self.root, spawn_key=(self.stream, *path))
        return np.random.default_rng(ss)

    @cached_property
    def _stream_pool(self) -> tuple:
        """The pool of SeedSequence(root, (stream,)) and the hash constant it
        mixes a further spawn-key word with: the root pads to 4 words, so
        16 + 4 per stream word hash calls come before it."""
        import numpy as np

        pool = np.random.SeedSequence(self.root, spawn_key=(self.stream,)).pool
        words = max(1, -(-self.stream.bit_length() // 32))
        return tuple(map(int, pool)), _INIT_A * pow(_MULT_A, 16 + 4 * words, 2**32) & _M32

    def _span_words(self, span: range) -> np.ndarray:
        """(a, b, c, e): the uint64 words SeedSequence(root, (stream, i))
        generates for PCG64, one row per i of span: the word i is mixed into
        each pool slot, then 8 words are hashed from the pool and paired
        little-endian. Updates run in place, so a span allocates little."""
        import numpy as np

        pool, hc = self._stream_pool
        u32 = np.uint32
        i = np.arange(span.start, span.stop, span.step, dtype=u32)
        mixed = []
        for p in pool:
            v = i ^ u32(hc)
            hc = hc * _MULT_A & _M32
            v *= u32(hc)
            v ^= v >> 16
            v *= u32(_MIX_R)
            np.subtract(u32(_MIX_L * p & _M32), v, out=v)
            v ^= v >> 16
            mixed.append(v)
        out = np.empty((len(i), 8), "<u4")
        hc = _INIT_B
        for d in range(8):
            v = out[:, d]
            np.bitwise_xor(mixed[d % 4], u32(hc), out=v)
            hc = hc * _MULT_B & _M32
            v *= u32(hc)
            v ^= v >> 16
        return out.view("<u8")

    def _rep_rngs(self, span: range):
        """For each i of span, one generator set to the state ``rng(i)``
        starts in, valid until the next is yielded. The span's seed words
        and PCG64 states are computed once, in numpy. Each replication then
        copies its state and inc words into the generator's pcg64_random_t
        and clears the 32-bit draw it may have cached, as the ``state``
        setter would, through views of the generator's memory. Spans past
        2**32, whose spawn key takes two words, and a numpy whose PCG64
        layout does not read back (see _pcg_word_order) build each generator
        with ``rng(i)``."""
        import numpy as np

        order = _pcg_word_order()
        if order is None or span.stop > 2**32:
            yield from map(self.rng, span)
            return
        states = _pcg_seed_states(*self._span_words(span).T)[:, order]
        gen = np.random.Generator(np.random.PCG64(0))
        words, flags = _pcg_views(gen.bit_generator)
        for row in states:
            words[...] = row
            flags[0] = 0
            yield gen


def _mulhi(x, y):
    """The high 64 bits of each 128-bit product x * y of uint64s, summed
    from 32-bit halves so that no partial sum overflows."""
    import numpy as np

    # uint64 scalars, so that no mixed operation promotes a limb to float64
    mask, shift = np.uint64(_M32), np.uint64(32)
    x0, x1, y0, y1 = x & mask, x >> shift, y & mask, y >> shift
    t = x0 * y0
    u = x1 * y0 + (t >> shift)
    v = x0 * y1 + (u & mask)
    return x1 * y1 + (u >> shift) + (v >> shift)


def _pcg_seed_states(a, b, c, e):
    """PCG64's seeding step from the uint64 words (a, b, c, e) that
    SeedSequence generates, elementwise in 64-bit limbs: inc = (c:e) << 1 | 1,
    then two steps from state 0 with the seed (a:b) added between them,
    state = ((a:b) + inc) * _PCG_MULT + inc mod 2**128. A sum carries when
    its low word wraps below an addend. One row per element: state low,
    state high, inc low, inc high."""
    import numpy as np

    # uint64 scalars, as in _mulhi
    one, shift = np.uint64(1), np.uint64(63)
    mult_lo, mult_hi = np.uint64(_PCG_MULT & 2**64 - 1), np.uint64(_PCG_MULT >> 64)
    inc_lo, inc_hi = e << one | one, c << one | e >> shift
    lo = b + inc_lo
    hi = a + inc_hi + (lo < b)
    hi = hi * mult_lo + lo * mult_hi + _mulhi(lo, mult_lo)
    lo = lo * mult_lo
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    return np.stack((state_lo, state_hi, inc_lo, inc_hi), axis=-1)


def _pcg_views(bit_generator):
    """uint64 views of a PCG64's memory: the four words of the
    pcg64_random_t (state, then inc) that the pcg64_state at
    ``ctypes.state_address`` points to, and the word after that pointer,
    which holds has_uint32 and uinteger."""
    import ctypes

    import numpy as np

    address = bit_generator.ctypes.state_address
    pcg = ctypes.c_void_p.from_address(address).value
    words = (ctypes.c_uint64 * 4).from_address(pcg)
    flags = (ctypes.c_uint64 * 1).from_address(address + ctypes.sizeof(ctypes.c_void_p))
    return np.frombuffer(words, np.uint64), np.frombuffer(flags, np.uint64)


@cache
def _pcg_word_order():
    """The order of _pcg_seed_states' columns in PCG64's memory, found once
    per process: each 128-bit word is stored low, high with __uint128_t, and
    high, low in numpy's emulated struct (MSVC). Known words are written
    over a generator with a cached 32-bit draw and read back through
    ``state``; None when neither order reads back with the draw cleared."""
    import numpy as np

    bit_generator = np.random.PCG64(0)
    words, flags = _pcg_views(bit_generator)
    state, inc = 0x0123456789ABCDEF_FEDCBA9876543210, 0x1122334455667788_99AABBCCDDEEFF01
    limbs = (state & 2**64 - 1, state >> 64, inc & 2**64 - 1, inc >> 64)
    want = {"state": state, "inc": inc}
    for order in ((0, 1, 2, 3), (1, 0, 3, 2)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": 1, "inc": 1},
            "has_uint32": 1,
            "uinteger": 7,
        }
        words[...] = np.array(limbs, np.uint64)[list(order)]
        flags[0] = 0
        got = bit_generator.state
        if (got["state"], got["has_uint32"], got["uinteger"]) == (want, 0, 0):
            return order
    return None


def _step_indices(d: FiniteDistribution, u: np.ndarray) -> np.ndarray:
    """The alphabet index each uniform of u (any shape) draws from d: index
    j counts the steps (float CDF values before the last support symbol)
    that the uniform reaches, so no zero-mass symbol is drawn. This is
    searchsorted(cdf, u, "right") on the support, and faster up to k of
    about 40 symbols. Counts are the smallest unsigned type that holds
    them, added as bytes; look them up with ``take``, which reads them
    without first widening them to intp as ``table[idx]`` does."""
    import numpy as np

    steps = d._float_steps
    idx = np.zeros(u.shape, np.min_scalar_type(len(steps)))
    for step in steps:
        idx += (u >= step).view(np.uint8)
    return idx


def _finite_indices(d: FiniteDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid alphabet indices drawn from d with rng, as intp."""
    import numpy as np

    return _step_indices(d, rng.random(n)).astype(np.intp)


def sample(d, n: int, seed: Seed):
    """n iid draws: a list of symbols for a FiniteDistribution, an ndarray
    of reals for a Gaussian component."""
    n = _size(n, "sample size", least=1)
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
    lo, hi = -38.5, 38.5  # Phi(-38.5) underflows to 0: any positive p fits
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
