"""Readers for the text formats the CLI consumes.

Distribution files hold one ``symbol<TAB>probability`` pair per line, with
probabilities written as decimals or fractions; data files hold one symbol
per line. Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from pathlib import Path

from .dist import FiniteDistribution, parse_probability
from .errors import InputError


def _content_lines(path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a UTF-8 text file") from exc
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def read_distribution(path) -> FiniteDistribution:
    labels = []
    probs = []
    for line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(
                f"{path}: expected 'symbol<TAB>probability', got {line!r}"
            )
        labels.append(parts[0].strip())
        probs.append(parse_probability(parts[1]))
    if not labels:
        raise InputError(f"{path}: distribution file is empty")
    return FiniteDistribution(tuple(labels), tuple(probs))


def read_symbols(path) -> list[str]:
    return _content_lines(path)
