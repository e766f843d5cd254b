"""Time harness._replicate at 1 and 2 workers across replication widths.

A replication's width is the number of draws it makes. For each width and
each fill ("random" for finite alphabets, "standard_normal" for Gaussians)
the script times ``_replicate`` on ``Seed(123)`` with a cumsum reduce, at 1
worker and at 2 workers with the pool forced on (``_POOL_WIDTH`` set to 0),
and prints the median of each and their ratio. harness._POOL_WIDTH is read
off this table: the narrowest width from which 2 workers stop losing to 1
on uniform draws, which cross over later than normal ones.
From the root of a source checkout:

    PYTHONPATH=src python tools/worker_sweep.py [--reps N] [--repeats N] [WIDTH ...]

Each timing replicates --reps replications (default 2 048, two chunks: one
per worker), and each median is over --repeats runs (default 7). The
widths default to WIDTHS.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from testlab import harness
from testlab.dist import Seed

WIDTHS = (16, 100, 500, 1000, 2000, 4000, 6000, 8000, 8192, 8193, 10000, 20000)
FILLS = ("random", "standard_normal")


def _last_of_cumsum(block):
    return np.cumsum(block, axis=-1)[..., -1]


def median_times(width, fill, reps, repeats) -> tuple:
    """Median seconds at 1 and at 2 workers, the two timed in turn."""
    out = np.empty(reps)
    times = {1: [], 2: []}
    for _ in range(repeats):
        for workers in times:
            start = time.perf_counter()
            harness._replicate(Seed(123), workers, out, width, fill, _last_of_cumsum)
            times[workers].append(time.perf_counter() - start)
    return statistics.median(times[1]), statistics.median(times[2])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("widths", nargs="*", type=int, default=WIDTHS)
    parser.add_argument("--reps", type=int, default=2 * harness._CHUNK)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    gate, harness._POOL_WIDTH = harness._POOL_WIDTH, 0
    try:
        print(f"reps={args.reps} repeats={args.repeats} (median); "
              f"harness._POOL_WIDTH is {gate}")
        print(f"{'fill':<16} {'width':>6} {'1w_s':>9} {'2w_s':>9} {'2w_speed':>8}")
        for fill in FILLS:
            for width in args.widths:
                one, two = median_times(width, fill, args.reps, args.repeats)
                print(f"{fill:<16} {width:>6} {one:9.4f} {two:9.4f} {one / two:7.2f}x",
                      flush=True)
    finally:
        harness._POOL_WIDTH = gate
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
