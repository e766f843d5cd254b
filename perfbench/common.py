"""Pieces shared by the workloads: the result record and small statistics."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

WORKERS = (1, 2)  # worker counts of every Monte Carlo pass; 2 = nproc of the reference box
OVERHEAD_PAIRS = 3  # untraced/traced pass pairs behind trace.overhead


@dataclass
class Result:
    """What one measured or traced pass of a workload hands back."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    lines: list = field(default_factory=list)  # human-readable notes

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.lines.append(f"FAIL {message}")


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def rate_se(p: float, reps: int) -> float:
    """Binomial standard error at the true rate p, floored at one count so
    a target of 0 still tolerates a single stray hit."""
    return max(math.sqrt(p * (1.0 - p) / reps), 1.0 / reps)


def weighted_quantile(pairs, q: float) -> float:
    """Nearest-rank q-quantile of (value, weight) pairs."""
    ordered = sorted(pairs)
    total = sum(w for _, w in ordered)
    running = 0
    for value, weight in ordered:
        running += weight
        if running >= q * total:
            return value
    return ordered[-1][0]


def quantile(values, q: float) -> float:
    """Nearest-rank q-quantile of a list of numbers."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def csv_body(report) -> str:
    """A report's CSV without the wall-clock row, which alone may differ
    between runs."""
    lines = report.to_csv().splitlines(keepends=True)
    return "".join(line for line in lines if ",meta,wall_clock_s," not in line)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
