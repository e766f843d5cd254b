"""Compare two source trees on perfbench's exact-decisions block, call by call.

    python tools/exact_ab.py PARENT CHANGE [--seed N] [--replays R]

PARENT and CHANGE are source checkouts, each with a src/testlab. In one
process, the script imports each tree's package as ``testlab``, builds
perfbench's ExactWorkload from it, and drops the package's modules from
sys.modules again; the calls of a built block keep the modules they were
built with. It then replays the two blocks call by call: each call of one
block runs next to the same call of the other, and which of the two runs
first alternates from call to call and from replay to replay, so that a
slow phase of the host falls on both trees alike. Every output must have
the same repr under both trees.

It prints, per call kind, the sum of the calls' median latencies, and for
the block the p50 and p99 over each call's median latency, as perfbench's
``op_p50_ms`` and ``op_p99_ms`` take them. The benchmark code is read from
this checkout's perfbench/ and nothing in it is changed. The exit status
is 0 when every output agrees and 1 when one differs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _build(tree: Path, seed: int, workdir: Path):
    """The workload's block of calls, built on tree's testlab."""
    import exact

    src = str(tree / "src")
    sys.path.insert(0, src)
    try:
        import testlab

        if Path(testlab.__file__).resolve().parent != tree / "src" / "testlab":
            sys.exit(f"imported testlab from {testlab.__file__}, not from {src}")
        return exact.ExactWorkload(workdir, seed).blocks[0]
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules if m == "testlab" or m.startswith("testlab.")]:
            del sys.modules[name]


def _call(op):
    """One timed call: (nanoseconds, the repr of its collected output)."""
    started = time.perf_counter_ns()
    try:
        out = op.call()
    except Exception as exc:  # noqa: BLE001 - an exception is an output to compare
        return time.perf_counter_ns() - started, f"raised {exc!r}"
    elapsed = time.perf_counter_ns() - started
    return elapsed, repr(op.collect(out) if op.collect is not None else out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--replays", type=int, default=20)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from common import quantile

    trees = [tree.resolve() for tree in args.trees]
    with tempfile.TemporaryDirectory(prefix="exact-ab-") as tmp:
        blocks = []
        for side, tree in enumerate(trees):
            workdir = Path(tmp) / str(side)
            workdir.mkdir()
            blocks.append(_build(tree, args.seed, workdir))
        ops = list(zip(*blocks))
        latencies = [[[] for _ in ops] for _ in trees]
        differing = set()
        for replay in range(args.replays):
            for index, pair in enumerate(ops):
                first = (index + replay) % 2
                outs = [None, None]
                for side in (first, 1 - first):
                    elapsed, outs[side] = _call(pair[side])
                    latencies[side][index].append(elapsed)
                if outs[0] != outs[1]:
                    differing.add(index)
    medians = [[statistics.median(call) for call in side] for side in latencies]
    kinds = {}
    for index, (op, _) in enumerate(ops):
        kinds.setdefault(op.kind, []).append(index)
    print(f"seed {args.seed}, {args.replays} alternated replays of {len(ops)} calls; "
          f"sums of per-call median latencies, us")
    print(f"{'kind':<28}{'calls':>6}{'parent':>12}{'change':>12}{'ratio':>8}")
    for kind, indices in kinds.items():
        a, b = (sum(side[i] for i in indices) / 1e3 for side in medians)
        print(f"{kind:<28}{len(indices):>6}{a:>12.1f}{b:>12.1f}{b / a:>8.3f}")
    for name, q in (("p50", 0.50), ("p99", 0.99)):
        a, b = (quantile(side, q) / 1e6 for side in medians)
        print(f"block {name} ms: parent {a:.5f}, change {b:.5f} ({b / a:.3f})")
    a, b = (1e9 * len(ops) / sum(side) for side in medians)
    print(f"block calls/s: parent {a:.0f}, change {b:.0f} ({b / a:.3f})")
    for index in sorted(differing):
        print(f"OUTPUT DIFFERS: call {index} ({ops[index][0].kind})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
