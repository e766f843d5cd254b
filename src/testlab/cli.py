"""testlab command line: exact tail tests, evidence summaries, error-rate
design, divergence tests and scenario simulation.

Exit codes: 0 success, 1 input error, 2 internal error. Everything that
affects results is an explicit flag or scenario key, and no environment
variable is read; simulate --workers sets the thread count, used only for
replications at least harness._POOL_WIDTH draws wide, and it never changes
numbers.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys

from . import __version__, evidential, fisher, harness, info_geometry, neyman_pearson
from .dist import GaussianPair, Seed, log_probability, parse_probability
from .errors import TestlabError
from .evidential import Priors
from .files import read_distribution, read_symbols
from .harness import _render

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher misses exponents, so `--mu-h -1e-3` would
        # read -1e-3 as an option; subparsers are built as _Parser too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on usage errors; our contract reserves 2 for bugs
    def error(self, message):
        raise _CliInputError(message)


def _emit(args, pairs, text_lines=None):
    """Write either a key/value CSV or human-readable text to --out/stdout."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([key for key, _ in pairs])
        writer.writerow([_render(value) for _, value in pairs])
        payload = buf.getvalue()
    else:
        lines = text_lines or [f"{key} = {_render(value)}" for key, value in pairs]
        payload = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _cmd_fisher(args):
    direction = fisher.TailDirection.parse(args.direction)
    if args.dist is not None:
        if args.observed is None:
            raise _CliInputError("--dist needs --observed")
        d = read_distribution(args.dist)
        report = fisher.p_value(d, args.observed, direction)
    else:
        if args.n is None or args.k is None:
            raise _CliInputError("either --dist/--observed or --n/--k/--theta")
        report = fisher.binomial_tail(args.n, args.k, args.theta, direction)
    significant = report.significant(args.level)
    # an exact tail can run to many thousands of digits: render it once
    p_text, point_text = _render(report.p), _render(report.point_prob)
    pairs = [
        ("p_exact", p_text),
        ("p_float", float(report.p)),
        ("point_prob", point_text),
        ("n_extreme", report.n_extreme),
        ("level", args.level),
        ("significant", significant),
    ]
    text = [
        f"p-value (exact)   = {p_text}",
        f"p-value (float)   = {float(report.p):.6e}",
        f"point probability = {point_text}",
        f"tail outcomes     = {report.n_extreme}",
        f"significant at {_render(args.level)}? {'yes' if significant else 'no'}",
    ]
    if report.p > 0 and float(report.p) == 0:  # exact tail below double range
        log10_p = log_probability(report.p) / math.log(10)
        pairs.insert(2, ("log10_p", log10_p))
        text.insert(2, f"log10 p-value     = {log10_p:.6f}")
    _emit(args, pairs, text)
    return EXIT_OK


def _evidence_common(args):
    h = read_distribution(args.h_dist)
    k = read_distribution(args.k_dist)
    xs = read_symbols(args.data)
    return h, k, evidential.evidence_from_sample(h, k, xs)


def _cmd_lr(args):
    _, _, ev = _evidence_common(args)
    verdict = evidential.threshold_verdict(ev, args.s)
    grade = evidential.grade(ev.ratio)
    pairs = [
        ("n", ev.n),
        ("log_lr", ev.sum_log_lr),
        ("lr", ev.ratio),
        ("grade", str(grade)),
        ("s", args.s),
        ("verdict", verdict.value),
    ]
    text = [
        f"n        = {ev.n}",
        f"log r_n  = {_render(ev.sum_log_lr)}",
        f"r_n      = {_render(ev.ratio)}",
        f"grade    = {grade}",
        f"verdict at s={_render(args.s)}: {verdict.value}",
    ]
    _emit(args, pairs, text)
    return EXIT_OK


def _cmd_bayes(args):
    _, _, ev = _evidence_common(args)
    priors = Priors(parse_probability(args.prior_h))
    odds = evidential.posterior_odds(ev, priors)
    post = evidential.posterior_prob_k(ev, priors)
    grade = evidential.grade(ev.ratio)
    pairs = [
        ("n", ev.n),
        ("log_lr", ev.sum_log_lr),
        ("lr", ev.ratio),
        ("grade", str(grade)),
        ("prior_h", float(priors.pi_h)),
        ("posterior_odds_k", odds),
        ("posterior_k", post),
    ]
    text = [
        f"n        = {ev.n}",
        f"log r_n  = {_render(ev.sum_log_lr)}",
        f"r_n      = {_render(ev.ratio)}",
        f"grade    = {grade}",
        f"prior P(H) = {_render(float(priors.pi_h))}",
        f"posterior odds K:H = {_render(odds)}",
        f"posterior P(K)     = {_render(post)}",
    ]
    _emit(args, pairs, text)
    return EXIT_OK


def _cmd_np(args):
    pair = GaussianPair(args.mu_h, args.mu_k, args.sigma)
    if args.alpha is None:
        rule, rates = neyman_pearson.midpoint_rule(pair, args.n)
        kind = "midpoint"
    else:
        rule, rates = neyman_pearson.np_test(pair, args.n, args.alpha)
        kind = "fixed-alpha"
    pairs = [
        ("rule", kind),
        ("n", args.n),
        ("cutoff", rule.cutoff),
        ("alpha", rates.alpha),
        ("beta", rates.beta),
        ("total_error", rates.total),
        ("power", 1.0 - rates.beta),
    ]
    _emit(args, pairs)
    return EXIT_OK


def _cmd_power(args):
    given = {
        "alpha": args.alpha,
        "beta": args.beta,
        "eta": args.eta,
        "n": args.n,
    }
    known = [name for name, value in given.items() if value is not None]
    if len(known) != 3:
        raise _CliInputError(
            "give exactly three of --alpha/--beta/--eta/--n; the fourth is solved"
        )
    spec = neyman_pearson.PowerSpec(sigma=args.sigma, **given)
    solved = neyman_pearson.solve_power(spec)
    pairs = [
        ("solved_for", spec.unknown),
        ("alpha", solved.alpha),
        ("beta", solved.beta),
        ("power", 1.0 - solved.beta),
        ("eta", solved.eta),
        ("n", solved.n),
        ("sigma", solved.sigma),
    ]
    _emit(args, pairs)
    return EXIT_OK


def _cmd_kl(args):
    p = read_distribution(args.p_file)
    q = read_distribution(args.q_file)
    forward = info_geometry.kl(p, q)
    backward = info_geometry.kl(q, p)
    pairs = [
        ("kl_pq_nats", forward.nats),
        ("kl_qp_nats", backward.nats),
    ]
    text = [
        f"D(p || q) = {_render(forward.nats)} nats",
        f"D(q || p) = {_render(backward.nats)} nats",
    ]
    _emit(args, pairs, text)
    return EXIT_OK


def _cmd_map(args):
    h = read_distribution(args.h_dist)
    k = read_distribution(args.k_dist)
    xs = read_symbols(args.data)
    priors = Priors(parse_probability(args.prior_h))
    ev, d_h, d_k = info_geometry._evidence_and_divergences(h, k, xs)
    decision = info_geometry._map_decision(priors, ev, d_h, d_k)
    pairs = [
        ("n", len(xs)),
        ("prior_h", float(priors.pi_h)),
        ("log_lr", ev.sum_log_lr),
        ("decision", decision),
    ]
    _emit(args, pairs)
    return EXIT_OK


def _cmd_hoeffding(args):
    h = read_distribution(args.hypothesis)
    xs = read_symbols(args.data)
    cfg = info_geometry.UniversalTestConfig(delta=args.delta)
    result = info_geometry.hoeffding_test(h, xs, cfg)
    pairs = [
        ("n", result.n),
        ("statistic_nats", result.statistic),
        ("radius", result.radius),
        ("delta", args.delta),
        ("decision", result.decision.value),
    ]
    _emit(args, pairs)
    return EXIT_OK


def _cmd_simulate(args):
    scenario = harness.load_scenario(args.scenario)
    overrides = {}
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.seed is not None:
        overrides["seed"] = Seed(args.seed, scenario.seed.stream)
    if overrides:
        from dataclasses import replace

        scenario = replace(scenario, **overrides)
    report = harness.run(scenario, workers=args.workers)
    payload = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="testlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"testlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fisher", help="directed tail p-value, exact")
    p.add_argument("--n", type=int, help="number of trials")
    p.add_argument("--k", type=int, help="observed count")
    p.add_argument("--theta", default="1/2", help="success probability (decimal or fraction)")
    p.add_argument("--dist", help="distribution file instead of binomial parameters")
    p.add_argument("--observed", help="observed symbol, with --dist")
    p.add_argument("--direction", default="ge", help="ge, le or abs")
    p.add_argument("--level", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=_cmd_fisher)

    p = sub.add_parser("lr", help="likelihood-ratio evidence from a data file")
    p.add_argument("--h-dist", required=True)
    p.add_argument("--k-dist", required=True)
    p.add_argument("--data", required=True, help="one symbol per line")
    p.add_argument("-s", "--s", dest="s", type=float, default=8.0)
    _add_common(p)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("bayes", help="posterior odds from a data file")
    p.add_argument("--h-dist", required=True)
    p.add_argument("--k-dist", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--prior-h", default="1/2")
    _add_common(p)
    p.set_defaults(func=_cmd_bayes)

    p = sub.add_parser("np", help="two-Gaussian decision rule and error rates")
    p.add_argument("--mu-h", type=float, required=True)
    p.add_argument("--mu-k", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, help="omit for the symmetric midpoint rule")
    _add_common(p)
    p.set_defaults(func=_cmd_np)

    p = sub.add_parser("power", help="solve the fourth of alpha/beta/eta/n")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("kl", help="divergences both ways between two distributions")
    p.add_argument("p_file")
    p.add_argument("q_file")
    _add_common(p)
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("map", help="maximum-a-posteriori decision on a data file")
    p.add_argument("--h-dist", required=True)
    p.add_argument("--k-dist", required=True)
    p.add_argument("--prior-h", default="1/2")
    p.add_argument("data")
    _add_common(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("hoeffding", help="universal test of one hypothesis")
    p.add_argument("--hypothesis", required=True, help="distribution file")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("data")
    _add_common(p)
    p.set_defaults(func=_cmd_hoeffding)

    p = sub.add_parser("simulate", help="run a scenario file, emit CSV")
    p.add_argument("--scenario", required=True)
    p.add_argument("--reps", type=int, help="override the scenario's replication count")
    p.add_argument("--seed", type=int, help="override the scenario's seed root")
    p.add_argument("--workers", type=int, default=1,
                   help="thread count, used only for replications at least "
                   f"{harness._POOL_WIDTH} draws wide (results never depend on it)")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_simulate)

    return parser


# built on the first main() call, not at import, and shared after it: parsing
# writes nothing to the parser, and each call gets a fresh Namespace
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command; safe to call repeatedly and from several threads."""
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliInputError, TestlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 - contract: unexpected failure exits 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
