"""testlab command line: exact tail tests, evidence summaries, error-rate
design, divergence tests and scenario simulation.

Each exact command returns its rows; main writes them and sets the exit
code: 0 success, 1 input error, 2 internal error. Everything that
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
from .dist import GaussianPair, Seed, _render, log_probability, parse_probability
from .errors import InputError, TestlabError
from .evidential import Priors
from .files import read_distribution, read_symbols

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher misses exponents, so `--mu-h -1e-3` would
        # read -1e-3 as an option; subparsers are built as _Parser too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits 2 on usage errors; our contract reserves 2 for bugs
    def error(self, message):
        raise InputError(message)


def _emit(args, rows):
    """Write rows of (key, value[, text line]) to --out/stdout, as a key/value
    CSV or as text; a 2-tuple prints as `key = value` and a text line of
    None leaves its row out of the text."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([row[0] for row in rows])
        writer.writerow([_render(row[1]) for row in rows])
        payload = buf.getvalue()
    else:
        lines = (f"{r[0]} = {_render(r[1])}" if len(r) == 2 else r[2] for r in rows)
        payload = "".join(f"{line}\n" for line in lines if line is not None)
    _write(args, payload)


def _write(args, payload):
    """Write payload to the --out file, or to stdout without one."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _exact(parser, func):
    """Finish an exact command's subparser, after its own arguments: --format,
    --out, and func(args), which returns the rows main writes."""
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.set_defaults(func=func)


def _cmd_fisher(args):
    direction = fisher.TailDirection.parse(args.direction)
    if args.dist is not None:
        if args.observed is None:
            raise InputError("--dist needs --observed")
        d = read_distribution(args.dist)
        report = fisher.p_value(d, args.observed, direction)
    else:
        if args.n is None or args.k is None:
            raise InputError("either --dist/--observed or --n/--k/--theta")
        report = fisher.binomial_tail(args.n, args.k, args.theta, direction)
    significant = report.significant(args.level)
    # an exact tail can run to many thousands of digits: render it once
    p_text, point_text = _render(report.p), _render(report.point_prob)
    rows = [
        ("p_exact", p_text, f"p-value (exact)   = {p_text}"),
        ("p_float", float(report.p), f"p-value (float)   = {float(report.p):.6e}"),
    ]
    if report.p > 0 and float(report.p) == 0:  # exact tail below double range
        log10_p = log_probability(report.p) / math.log(10)
        rows.append(("log10_p", log10_p, f"log10 p-value     = {log10_p:.6f}"))
    return rows + [
        ("point_prob", point_text, f"point probability = {point_text}"),
        ("n_extreme", report.n_extreme, f"tail outcomes     = {report.n_extreme}"),
        ("level", args.level, None),
        ("significant", significant,
         f"significant at {_render(args.level)}? {_render(significant)}"),
    ]


def _read_pair_and_data(args):
    """The --h-dist and --k-dist distributions and the data file's symbols."""
    h, k = read_distribution(args.h_dist), read_distribution(args.k_dist)
    return h, k, read_symbols(args.data)


def _evidence_rows(ev):
    """The rows lr and bayes share: n, ln r_n, r_n and its grade."""
    grade = evidential.grade(ev.ratio)
    return [
        ("n", ev.n, f"n        = {ev.n}"),
        ("log_lr", ev.sum_log_lr, f"log r_n  = {_render(ev.sum_log_lr)}"),
        ("lr", ev.ratio, f"r_n      = {_render(ev.ratio)}"),
        ("grade", str(grade), f"grade    = {grade}"),
    ]


def _cmd_lr(args):
    ev = evidential.evidence_from_sample(*_read_pair_and_data(args))
    verdict = evidential.threshold_verdict(ev, args.s)
    return _evidence_rows(ev) + [
        ("s", args.s, None),
        ("verdict", verdict.value, f"verdict at s={_render(args.s)}: {verdict.value}"),
    ]


def _cmd_bayes(args):
    ev = evidential.evidence_from_sample(*_read_pair_and_data(args))
    priors = Priors(parse_probability(args.prior_h))
    odds = evidential.posterior_odds(ev, priors)
    post = evidential.posterior_prob_k(ev, priors)
    return _evidence_rows(ev) + [
        ("prior_h", float(priors.pi_h), f"prior P(H) = {_render(float(priors.pi_h))}"),
        ("posterior_odds_k", odds, f"posterior odds K:H = {_render(odds)}"),
        ("posterior_k", post, f"posterior P(K)     = {_render(post)}"),
    ]


def _cmd_np(args):
    pair = GaussianPair(args.mu_h, args.mu_k, args.sigma)
    kind, rule, rates = neyman_pearson._named_rule(pair, args.n, args.alpha)
    return [
        ("rule", kind),
        ("n", args.n),
        ("cutoff", rule.cutoff),
        ("alpha", rates.alpha),
        ("beta", rates.beta),
        ("total_error", rates.total),
        ("power", 1.0 - rates.beta),
    ]


def _cmd_power(args):
    given = {
        "alpha": args.alpha,
        "beta": args.beta,
        "eta": args.eta,
        "n": args.n,
    }
    known = [name for name, value in given.items() if value is not None]
    if len(known) != 3:
        raise InputError(
            "give exactly three of --alpha/--beta/--eta/--n; the fourth is solved"
        )
    spec = neyman_pearson.PowerSpec(sigma=args.sigma, **given)
    solved = neyman_pearson.solve_power(spec)
    return [
        ("solved_for", spec.unknown),
        ("alpha", solved.alpha),
        ("beta", solved.beta),
        ("power", 1.0 - solved.beta),
        ("eta", solved.eta),
        ("n", solved.n),
        ("sigma", solved.sigma),
    ]


def _cmd_kl(args):
    p = read_distribution(args.p_file)
    q = read_distribution(args.q_file)
    forward = info_geometry.kl(p, q)
    backward = info_geometry.kl(q, p)
    return [
        ("kl_pq_nats", forward.nats, f"D(p || q) = {_render(forward.nats)} nats"),
        ("kl_qp_nats", backward.nats, f"D(q || p) = {_render(backward.nats)} nats"),
    ]


def _cmd_map(args):
    h, k, xs = _read_pair_and_data(args)
    priors = Priors(parse_probability(args.prior_h))
    ev, d_h, d_k = info_geometry._evidence_and_divergences(h, k, xs)
    decision = info_geometry._map_decision(priors, ev, d_h, d_k)
    return [
        ("n", len(xs)),
        ("prior_h", float(priors.pi_h)),
        ("log_lr", ev.sum_log_lr),
        ("decision", decision),
    ]


def _cmd_hoeffding(args):
    h = read_distribution(args.hypothesis)
    xs = read_symbols(args.data)
    cfg = info_geometry.UniversalTestConfig(delta=args.delta)
    result = info_geometry.hoeffding_test(h, xs, cfg)
    return [
        ("n", result.n),
        ("statistic_nats", result.statistic),
        ("radius", result.radius),
        ("delta", args.delta),
        ("decision", result.decision.value),
    ]


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
    _write(args, harness.run(scenario, workers=args.workers).to_csv())
    if args.out:
        print(f"wrote {args.out}")


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
    _exact(p, _cmd_fisher)

    p = sub.add_parser("lr", help="likelihood-ratio evidence from a data file")
    p.add_argument("--h-dist", required=True)
    p.add_argument("--k-dist", required=True)
    p.add_argument("--data", required=True, help="one symbol per line")
    p.add_argument("-s", "--s", dest="s", type=float, default=8.0)
    _exact(p, _cmd_lr)

    p = sub.add_parser("bayes", help="posterior odds from a data file")
    p.add_argument("--h-dist", required=True)
    p.add_argument("--k-dist", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--prior-h", default="1/2")
    _exact(p, _cmd_bayes)

    p = sub.add_parser("np", help="two-Gaussian decision rule and error rates")
    p.add_argument("--mu-h", type=float, required=True)
    p.add_argument("--mu-k", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, help="omit for the symmetric midpoint rule")
    _exact(p, _cmd_np)

    p = sub.add_parser("power", help="solve the fourth of alpha/beta/eta/n")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", type=float, default=1.0)
    _exact(p, _cmd_power)

    p = sub.add_parser("kl", help="divergences both ways between two distributions")
    p.add_argument("p_file")
    p.add_argument("q_file")
    _exact(p, _cmd_kl)

    p = sub.add_parser("map", help="maximum-a-posteriori decision on a data file")
    p.add_argument("--h-dist", required=True)
    p.add_argument("--k-dist", required=True)
    p.add_argument("--prior-h", default="1/2")
    p.add_argument("data")
    _exact(p, _cmd_map)

    p = sub.add_parser("hoeffding", help="universal test of one hypothesis")
    p.add_argument("--hypothesis", required=True, help="distribution file")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("data")
    _exact(p, _cmd_hoeffding)

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
        rows = args.func(args)
        if rows is not None:  # simulate writes its own CSV
            _emit(args, rows)
        return EXIT_OK
    except (TestlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # noqa: BLE001 - contract: unexpected failure exits 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
