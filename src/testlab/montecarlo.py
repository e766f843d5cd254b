"""Small helpers for Monte Carlo estimates and their standard errors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo estimate with its standard error and replication count."""

    value: float
    se: float
    reps: int

    def __float__(self) -> float:
        return self.value


def rate_estimate(successes: int, reps: int) -> MCEstimate:
    """Binomial rate estimate: p-hat with SE sqrt(p(1-p)/reps)."""
    p = successes / reps
    return MCEstimate(p, math.sqrt(p * (1.0 - p) / reps), reps)


def mean_estimate(values: np.ndarray) -> MCEstimate:
    """Sample mean with SE s/sqrt(reps); SE is 0 for a single replication,
    and nan when a value is infinite."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    reps = len(values)
    mean = float(values.mean())
    if reps < 2:
        return MCEstimate(mean, 0.0, reps)
    with np.errstate(invalid="ignore"):  # inf - inf
        se = float(values.std(ddof=1) / math.sqrt(reps))
    return MCEstimate(mean, se, reps)
