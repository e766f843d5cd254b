"""Scenario-driven Monte Carlo experiment runner.

A scenario is one INI-style file describing a data-generating truth, a
testing paradigm and its parameters, a replication count and a seed. Runs
are bit-reproducible: ``_replicate`` alone seeds replication i, with what
seed.rng(i) would draw from one generator reseeded per replication, and
alone stores its result, in slot i; so the worker count never changes a
result, and reducers only ever merge order-independent per-rep results.
Each replication draws into one row of a block, and the runner's reduce
turns the whole block into its rows' results at once in 2-D numpy. The
single machine-readable output is CSV with floats at 12 significant
digits; wall-clock time is the one field excluded from reproducibility
comparisons.

Scenario keys
-------------
[scenario]    name, paradigm, truth (H|K), reps, seed-root, seed-stream
[hypothesis-h] / [hypothesis-k]   symbol = probability (decimal/fraction)
[gaussian]    mu-h, mu-k, sigma
[params]      the keys _RUNNERS lists for the paradigm
Any other section, key or param is a ScenarioError, and so is a key the
paradigm's mode would ignore: fisher's observed = SYMBOL (with
[hypothesis-h]) excludes n, k and theta; lr's horizon (sequential monitor)
excludes n and checkpoints (one-shot trajectory points, default quarters of
n); lr-eta needs a [gaussian] null. np without alpha uses the midpoint rule.

Sizes (horizon, n) are at least 1 (bayes/map n at least 0), s is finite
and at least 1, optional-stopping alpha lies in (0, 1) and lr-eta is
positive and finite, and looks and checkpoints are strictly increasing
integers from 1 (checkpoints up to n); any other value is a ScenarioError
naming its key. A hoeffding truth of K must share the alphabet of
[hypothesis-h]. A two-symbol optional-stopping null rejects at each look
once its running count reaches the least count with a significant exact
binomial tail, found in one pass over the tail's terms.

The library's Monte Carlo estimators replicate here too, so this module
owns every replication loop and seed stream: optional_stopping_alpha and
robbins_violation_probability wrap ``run``, evidence_rate shares the
bayes/map ln r_n sampler, and family_wise_error uses ``_replicate``; each
runner only names its draw (width values, uniform or normal) and its
reduce of a block of draws. An estimator given a size or a real argument of
the wrong type raises its out-of-range error. numpy and the thread pool are
imported by the functions that use them, so loading a scenario needs neither.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import dist, fisher, info_geometry, neyman_pearson
from .dist import (
    FiniteDistribution,
    GaussianPair,
    Seed,
    _finite_indices,  # noqa: F401 - unused; perfbench's tracer rebinds it here
    _render,
    _size,
    _step_indices,
    gaussian_cdf,
    gaussian_quantile,
    parse_probability,
    require_same_alphabet,
)
from .errors import InfiniteDivergenceError, InputError, ScenarioError, TestlabError
from .evidential import Priors, log_ratio_table
from .montecarlo import MCEstimate, mean_estimate, rate_estimate

# a chunk is a pool thread's unit of work; no result depends on its size,
# since replication i draws what Seed.rng(i) would in any chunk
_CHUNK = 1024
_CELLS = 2**14  # draws per block buffer: one row when a path is longer
# draws per replication from which threads pay (tools/worker_sweep.py): a block
# of one row; narrower ones retake the GIL on every small fill and 2-D reduce
_POOL_WIDTH = _CELLS // 2 + 1


@dataclass(frozen=True)
class Scenario:
    name: str
    paradigm: str
    truth: str = "H"
    reps: int = 0
    seed: Seed = Seed(0)
    h: Optional[FiniteDistribution] = None
    k: Optional[FiniteDistribution] = None
    gaussian: Optional[GaussianPair] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(self, self.paradigm in PARADIGMS,
                 f"unknown paradigm {self.paradigm!r}; expected one of {PARADIGMS}")
        _require(self, self.truth in ("H", "K"), f"truth must be H or K, got {self.truth!r}")
        _require(self, self.reps >= 0, f"reps must be nonnegative, got {self.reps}")
        keys = _RUNNERS[self.paradigm][1]
        for key in self.params:
            _require(self, key in keys,
                     f"unknown param {key!r}; {self.paradigm} reads {', '.join(keys)}")


@dataclass
class SimulationReport:
    scenario: str
    paradigm: str
    truth: str
    reps: int
    seed_root: int
    seed_stream: int
    values: dict = field(default_factory=dict)
    verdict_counts: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    trajectory: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    # sha256 of each _replicate output, in call order, kept out of the CSV;
    # unlike the CSV's sums it changes when replications change places
    replication_digests: tuple = ()

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "section", "key", "value", "se"])

        def row(section, key, value, se=""):
            writer.writerow([self.scenario, section, key, _render(value), se])

        for key in ("paradigm", "truth", "reps", "seed_root", "seed_stream"):
            row("meta", key, getattr(self, key))
        for key, value in self.values.items():
            row("value", key, value)
        for key, count in self.verdict_counts.items():
            row("count", key, count)
        for key, est in self.rates.items():
            row("rate", key, est.value, _render(est.se))
        for key, value in self.trajectory.items():
            row("trajectory", key, value)
        row("meta", "wall_clock_s", self.wall_clock)
        return buf.getvalue()


def load_scenario(path) -> Scenario:
    # values are literal, and no header can hold "\n": [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str  # symbol labels are case-sensitive
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from exc
    if "scenario" not in parser:
        raise ScenarioError(f"{path}: missing [scenario] section")
    known = {"scenario": ("name", "paradigm", "truth", "reps", "seed-root", "seed-stream"),
             "gaussian": ("mu-h", "mu-k", "sigma"), "hypothesis-h": None,
             "hypothesis-k": None, "params": None}  # None: checked where read
    for section in parser.sections():
        if section not in known:
            raise ScenarioError(f"{path}: unknown section [{section}]")
        for key in parser[section] if known[section] else ():
            if key not in known[section]:
                raise ScenarioError(f"{path}: unknown key {key!r} in [{section}]")
    meta = parser["scenario"]
    name = meta.get("name", Path(path).stem)
    paradigm = meta.get("paradigm", "")
    truth = meta.get("truth", "H")
    try:
        reps = int(meta.get("reps", "0"))
        root = int(meta.get("seed-root", "0"))
        stream = int(meta.get("seed-stream", "0"))
    except ValueError as exc:
        raise ScenarioError(f"{path}: bad integer in [scenario]: {exc}") from exc

    def dist_from(section):
        if section not in parser:
            return None
        items = list(parser[section].items())
        if not items:
            raise ScenarioError(f"{path}: [{section}] is empty")
        labels = tuple(label for label, _ in items)
        probs = tuple(parse_probability(text) for _, text in items)
        return FiniteDistribution(labels, probs)

    gaussian = None
    if "gaussian" in parser:
        g = parser["gaussian"]
        try:
            gaussian = GaussianPair(
                float(g.get("mu-h", "0")),
                float(g.get("mu-k", "0")),
                float(g.get("sigma", "1")),
            )
        except (ValueError, TestlabError) as exc:
            raise ScenarioError(f"{path}: bad [gaussian] section: {exc}") from exc

    params = dict(parser["params"].items()) if "params" in parser else {}
    return Scenario(
        name=name,
        paradigm=paradigm,
        truth=truth,
        reps=reps,
        seed=Seed(root, stream),
        h=dist_from("hypothesis-h"),
        k=dist_from("hypothesis-k"),
        gaussian=gaussian,
        params=params,
    )


# --- typed access to [params] -------------------------------------------


def _require(scenario, ok, what):
    if not ok:
        raise ScenarioError(f"scenario {scenario.name}: {what}")


def _param(scenario, key, convert, default=None, required=False, check=None):
    """Convert params[key]; check = (predicate, what the value must do), a
    rule as dist's ``_real`` reads them."""
    raw = scenario.params.get(key)
    if raw is None:
        _require(scenario, not required, f"missing param {key!r}")
        return default
    try:
        value = convert(raw)
    except (ValueError, TypeError) as exc:
        raise ScenarioError(
            f"scenario {scenario.name}: bad value {raw!r} for {key!r}"
        ) from exc
    if check is not None:
        _require(scenario, check[0](value), f"{key!r} must {check[1]}, got {raw!r}")
    return value


def _int_param(scenario, key, default=None, required=False, least=1):
    check = (lambda v: v >= least, f"be at least {least}")
    return _param(scenario, key, lambda v: int(str(v)), default, required, check)


def _float_param(scenario, key, default=None, required=False, check=None):
    return _param(scenario, key, lambda v: float(str(v)), default, required, check)


def _ints(text):
    return tuple(int(part) for part in str(text).split())


def _increasing_param(scenario, key, top=None, required=False):
    """params[key] as strictly increasing integers from 1, and up to top."""

    def ok(v):
        ordered = all(a < b for a, b in zip(v, v[1:]))
        return bool(v) and ordered and v[0] >= 1 and (top is None or v[-1] <= top)

    what = "be strictly increasing integers from 1" + (f" to {top}" if top else "")
    return _param(scenario, key, _ints, required=required, check=(ok, what))


def _require_pair(scenario):
    """h, k and the one of them the truth names."""
    h, k = scenario.h, scenario.k
    _require(scenario, h and k, "needs [hypothesis-h] and [hypothesis-k]")
    return h, k, h if scenario.truth == "H" else k


def _for_each_rep(reps: int, workers: int, body) -> None:
    """Run body(span) once for each fixed chunk of replication indices.

    Chunk boundaries are fixed, bodies write only to their own chunk's
    slots, and merging is plain indexing, so the worker count can change
    timing but never results.
    """
    spans = [range(lo, min(lo + _CHUNK, reps)) for lo in range(0, reps, _CHUNK)]
    if workers <= 1 or len(spans) <= 1:
        list(map(body, spans))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(body, spans))


def _replicate(seed, workers, out, width, fill, reduce, report=None):
    """out[i] = replication i's result for every slot of out.

    Replication i draws width values into one row of a block with the
    Generator method named fill ("random" for finite alphabets,
    "standard_normal" for Gaussians), from the generator seed.rng(i) would
    give. reduce maps a (rows, width) block to its rows' results in 2-D
    numpy, once per block of at most _CELLS draws, working along the last
    axis; a block of one row reaches it as that row, 1-D, since numpy's
    2-D accumulate holds the GIL and its 2-D calls cost more per call than
    one long row saves. Chunks run through the module global
    ``_for_each_rep``, so rebinding it sees each chunk. They go to a pool of
    workers threads only when width is at least _POOL_WIDTH; narrower
    replications run on the calling thread, where one thread beats two.
    Chunks are fixed either way, so this moves timing, never a result. A
    report given gets the sha256 of the filled out appended to its
    replication_digests.
    """
    import numpy as np

    rows = max(1, _CELLS // max(width, 1))
    fill = getattr(np.random.Generator, fill)

    def body(span):
        rngs = seed._rep_rngs(span)
        block = np.empty((min(rows, len(span)), width))
        for lo in range(span.start, span.stop, rows):
            part = block[: span.stop - lo]
            for row, rng in zip(part, rngs):
                fill(rng, out=row)
            out[lo : lo + len(part)] = reduce(part if len(part) > 1 else part[0])

    _for_each_rep(len(out), workers if width >= _POOL_WIDTH else 1, body)
    if report is not None:
        import hashlib  # here, not at the top: loading OpenSSL slows every CLI start

        report.replication_digests += (hashlib.sha256(out.tobytes()).hexdigest(),)
    return out


# --- paradigm runners ------------------------------------------------------


def _run_fisher(scenario, report, workers):
    params = scenario.params
    level = _float_param(scenario, "level", default=0.05)
    observed = params.get("observed")
    direction = params.get("direction", "ge" if observed is None else "le")
    direction = fisher.TailDirection.parse(direction)
    if observed is not None:
        _require(scenario, scenario.h, "observed-symbol mode needs [hypothesis-h]")
        _require(scenario, not {"n", "k", "theta"} & params.keys(),
                 "'n', 'k' and 'theta' do not apply with 'observed'")
        rep = fisher.p_value(scenario.h, observed, direction)
    else:
        n = _int_param(scenario, "n", required=True)
        k = _int_param(scenario, "k", required=True, least=0)
        rep = fisher.binomial_tail(n, k, params.get("theta", "1/2"), direction)
    report.values["direction"] = rep.direction.value
    report.values["p_exact"] = rep.p
    report.values["p_float"] = float(rep.p)
    report.values["point_prob"] = rep.point_prob
    report.values["point_prob_float"] = float(rep.point_prob)
    report.values["n_extreme"] = rep.n_extreme
    report.values["level"] = level
    report.values["significant"] = rep.significant(level)


def _run_lr(scenario, report, workers):
    import numpy as np

    h, k, truth = _require_pair(scenario)
    s = _float_param(scenario, "s", default=8.0, check=dist._FINITE_AT_LEAST_1)
    table = log_ratio_table(h, k)
    log_s = math.log(s)
    report.values["s"] = s

    horizon = _int_param(scenario, "horizon")
    if horizon is not None:
        _require(scenario, not {"n", "checkpoints"} & scenario.params.keys(),
                 "'n' and 'checkpoints' do not apply with 'horizon'")
        report.values["horizon"] = horizon
        report.values["crossing_bound"] = 1.0 / s

        def crosses(u):
            steps = table.take(_step_indices(truth, u))
            return np.cumsum(steps, axis=-1).max(axis=-1) >= log_s

        crossed = np.zeros(scenario.reps, dtype=bool)
        _replicate(scenario.seed, workers, crossed, horizon, "random", crosses, report)
        report.rates["crossing_rate"] = rate_estimate(int(crossed.sum()), scenario.reps)
        return

    n = _int_param(scenario, "n", required=True)
    quarters = sorted({max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n})
    checkpoints = _increasing_param(scenario, "checkpoints", top=n) or tuple(quarters)
    report.values["n"] = n
    marks = np.array(checkpoints + (n,)) - 1  # ln r at each checkpoint, then ln r_n

    def path(u):
        return np.cumsum(table.take(_step_indices(truth, u)), axis=-1)[..., marks]

    rows = np.empty((scenario.reps, len(marks)))
    _replicate(scenario.seed, workers, rows, n, "random", path, report)
    sums, traj = rows[:, -1], rows[:, :-1]

    accept_k = int((sums >= log_s).sum())
    accept_h = int(((sums <= -log_s) & (sums < log_s)).sum())  # at s = 1, 0 accepts K
    counts = (accept_k, accept_h, scenario.reps - accept_k - accept_h)
    for name, count in zip(("accept_k", "accept_h", "continue"), counts):
        report.verdict_counts[name] = count
        report.rates[f"{name}_rate"] = rate_estimate(count, scenario.reps)
    report.rates["mean_log_lr_per_n"] = mean_estimate(sums / n)
    qs = (5, 25, 50, 75, 95)
    for j, cp in enumerate(checkpoints):
        for q, value in zip(qs, _percentiles(traj[:, j], qs)):
            report.trajectory[f"log_lr_q{q:02d}@{cp}"] = float(value)


def _percentiles(x, qs):
    """np.percentile(x, qs), save that an infinite order statistic with positive
    weight (the lower one always has some) gives that value, not numpy's nan."""
    import numpy as np

    with np.errstate(invalid="ignore"):
        out = np.percentile(x, qs)
    lower, higher = (np.percentile(x, qs, method=m) for m in ("lower", "higher"))
    return np.where(np.isnan(out), np.where(np.isinf(lower), lower, higher), out)


def _sum_log_lr(truth, table, n, reps, seed, workers, report=None):
    """ln r_n of n draws from truth per replication; table[j] = ln P_K/P_H."""
    import numpy as np

    def sums(u):
        return table.take(_step_indices(truth, u)).sum(axis=-1)

    return _replicate(seed, workers, np.empty(reps), n, "random", sums, report)


def _tally(report, hits, truth=None, hit="decide_k", miss="decide_h",
           rate="decide_k_rate"):
    """Count the replications where hits holds as outcome hit and the rest as
    miss, record hit's rate, and the error rate of deciding K given the truth."""
    count, reps = int(hits.sum()), len(hits)
    report.verdict_counts[hit] = count
    report.verdict_counts[miss] = reps - count
    report.rates[rate] = rate_estimate(count, reps)
    if truth is not None:
        wrong = count if truth == "H" else reps - count
        report.rates["error_rate"] = rate_estimate(wrong, reps)


def _log_posterior_odds(scenario, report, workers):
    """ln(pi_k / pi_h) + ln r_n per replication, for bayes and map."""
    h, k, truth = _require_pair(scenario)
    n = _int_param(scenario, "n", required=True, least=0)
    prior_h = _float_param(scenario, "prior-h", default=0.5)
    priors = Priors(prior_h)
    report.values["n"] = n
    report.values["prior_h"] = prior_h
    table = log_ratio_table(h, k)
    sums = _sum_log_lr(truth, table, n, scenario.reps, scenario.seed, workers, report)
    return sums + priors.log_odds


def _run_bayes(scenario, report, workers):
    import numpy as np

    log_odds = _log_posterior_odds(scenario, report, workers)
    with np.errstate(over="ignore"):  # exp overflow saturates to 0/1 correctly
        posterior = 1.0 / (1.0 + np.exp(-log_odds))
    _tally(report, log_odds > 0)
    report.rates["mean_posterior_k"] = mean_estimate(posterior)


def _run_np(scenario, report, workers):
    import numpy as np

    pair = scenario.gaussian
    _require(scenario, pair is not None, "needs a [gaussian] section")
    n = _int_param(scenario, "n", required=True)
    alpha = _float_param(scenario, "alpha")
    report.values["rule"], rule, rates = neyman_pearson._named_rule(pair, n, alpha)
    report.values["n"] = n
    report.values["cutoff"] = rule.cutoff
    report.values["alpha_analytic"] = rates.alpha
    report.values["beta_analytic"] = rates.beta
    report.values["total_analytic"] = rates.total

    mu = pair.mu_h if scenario.truth == "H" else pair.mu_k

    def decide(z):  # Generator.normal draws mu + sigma * z
        return (mu + pair.sigma * z).mean(axis=-1) >= rule.cutoff

    decide_k = np.zeros(scenario.reps, dtype=bool)
    _replicate(scenario.seed, workers, decide_k, n, "standard_normal", decide, report)
    _tally(report, decide_k, scenario.truth)


def _run_map(scenario, report, workers):
    _tally(report, _log_posterior_odds(scenario, report, workers) > 0, scenario.truth)


def _run_hoeffding(scenario, report, workers):
    import numpy as np

    h = scenario.h
    truth = h if scenario.truth == "H" else scenario.k
    _require(scenario, h and truth,
             "needs [hypothesis-h], and [hypothesis-k] for truth=K")
    require_same_alphabet(h, truth)
    n = _int_param(scenario, "n", required=True)
    delta = _float_param(scenario, "delta", default=0.05)
    radius = info_geometry.types_bound_radius(h.size, n, delta)
    h_probs = h.float_probs()
    log_h = np.where(h_probs > 0, np.log(np.where(h_probs > 0, h_probs, 1.0)), -np.inf)
    report.values["n"] = n
    report.values["delta"] = delta
    report.values["radius"] = radius

    # each replication's symbol counts, not its verdict, so that its digest
    # sees which replication drew what
    counts = np.empty((scenario.reps, h.size), np.min_scalar_type(n))
    _replicate(scenario.seed, workers, counts, n, "random",
               lambda u: _symbol_counts(truth, u), report)
    stats = _divergences(counts, n, log_h)
    _tally(report, stats > radius, hit="reject_h", miss="accept_h", rate="reject_rate")


def _symbol_counts(d, u):
    """Each row's count of each of d's symbols among n uniforms u, in the
    smallest unsigned type that holds n. ge[j] uniforms reach step j of d's
    float CDF (_float_steps[j - 1]; all reach step 0), and _step_indices
    draws symbol j from those that reach step j but not step j + 1."""
    import numpy as np

    n = u.shape[-1]
    dtype = np.min_scalar_type(n)
    ge = np.zeros(u.shape[:-1] + (d.size + 1,), dtype)
    ge[..., 0] = n
    for j, step in enumerate(d._float_steps, 1):
        ge[..., j] = (u >= step).view(np.uint8).sum(axis=-1, dtype=dtype)
    return ge[..., :-1] - ge[..., 1:]


def _divergences(counts, n, log_h):
    """D(emp || h) of each row of symbol counts; +inf once one of h's
    zero-mass symbols shows. Each row is summed as np.sum sums its nonzero
    terms alone: a zero-padded sum of 8 or more terms rounds differently,
    so only rows that show every symbol are summed as a block."""
    import numpy as np

    freqs = counts / n
    with np.errstate(divide="ignore", invalid="ignore"):  # the unseen are nan
        terms = freqs * (np.log(freqs) - log_h)
    seen = counts > 0
    full = seen.all(axis=1)
    out = np.empty(len(counts))
    out[full] = terms[full].sum(axis=1)
    for r in np.flatnonzero(~full):
        out[r] = np.sum(terms[r][seen[r]])
    return out


def _run_optional_stopping(scenario, report, workers):
    import numpy as np

    alpha = _float_param(scenario, "alpha", default=0.05, check=dist._LEVEL)
    looks = _increasing_param(scenario, "looks", required=True)
    s = _float_param(scenario, "s", default=1.0 / alpha, check=dist._FINITE_AT_LEAST_1)
    report.values["alpha"] = alpha
    report.values["s"] = s
    report.values["lr_bound"] = 1.0 / s
    report.values["looks"] = " ".join(str(n) for n in looks)
    horizon = looks[-1]
    marks = np.array(looks) - 1
    starts = np.array((0,) + looks[:-1])  # where each look's segment of a path starts
    log_s = math.log(s)

    # each null gives fill, draw(block) -> (statistic at each look, ln-ratio
    # steps) per row, and cut, the statistic's significance threshold per look
    pair = scenario.gaussian
    monitors = "optional stopping monitors a true null"
    if pair is not None:
        _require(scenario, scenario.truth == "H" and pair.effect == 0,
                 f"{monitors}; use truth=H and a zero-effect gaussian pair")
        mu, sigma = pair.mu_h, pair.sigma
        eta = _float_param(scenario, "lr-eta", default=0.5 * sigma, check=dist._POSITIVE)
        report.values["lr_eta"] = eta
        cut = -gaussian_quantile(alpha)  # z-score per look
        centre = np.array(looks) * mu
        scale = sigma * np.sqrt(np.array(looks, dtype=np.float64))
        var, drift = sigma**2, eta**2 / (2.0 * sigma**2)

        fill = "standard_normal"

        def draw(z):
            xs = mu + sigma * z  # what Generator.normal draws
            z_scores = (np.cumsum(xs, axis=-1)[..., marks] - centre) / scale
            return z_scores, (xs - mu) * eta / var - drift

    else:
        h, k = scenario.h, scenario.k
        _require(scenario, h and k and h.size == 2, "finite-alphabet optional stopping "
                 "needs two-symbol [hypothesis-h] and [hypothesis-k]")
        _require(scenario, scenario.truth == "H", monitors)
        _require(scenario, "lr-eta" not in scenario.params,
                 "'lr-eta' applies only to a gaussian null")
        theta = h.probs[1]
        # per look, the first count whose upper tail is significant, n_j + 1
        # if none is: a threshold on running counts
        cut = np.array([fisher._first_significant_count(m, theta, alpha) for m in looks])
        table = log_ratio_table(h, k)

        fill = "random"

        def draw(u):
            idx = _step_indices(h, u)  # 1 for the second symbol
            return np.add.reduceat(idx, starts, axis=-1).cumsum(axis=-1), table.take(idx)

    def monitor(block):
        statistic, steps = draw(block)
        path_max = np.maximum.reduceat(np.cumsum(steps, axis=-1), starts, axis=-1)
        rejected = np.maximum.accumulate(statistic >= cut, axis=-1)
        crossed = np.maximum.accumulate(path_max, axis=-1) >= log_s
        return np.stack((rejected, crossed), axis=-2)

    out = np.zeros((scenario.reps, 2, len(looks)), dtype=bool)
    _replicate(scenario.seed, workers, out, horizon, fill, monitor, report)
    hits = out.sum(axis=0)
    for name, counts in zip(("cumulative_reject", "lr_crossed"), hits):
        for n_j, count in zip(looks, counts):
            report.rates[f"{name}@{n_j}"] = rate_estimate(int(count), scenario.reps)


# each paradigm's runner and the [params] keys it reads; Scenario rejects others
_RUNNERS = {
    "fisher": (_run_fisher, ("n", "k", "theta", "direction", "level", "observed")),
    "lr": (_run_lr, ("s", "horizon", "n", "checkpoints")),
    "bayes": (_run_bayes, ("n", "prior-h")),
    "np": (_run_np, ("n", "alpha")),
    "map": (_run_map, ("n", "prior-h")),
    "hoeffding": (_run_hoeffding, ("n", "delta")),
    "optional-stopping": (_run_optional_stopping, ("alpha", "looks", "s", "lr-eta")),
}
PARADIGMS = tuple(_RUNNERS)


def run(scenario: Scenario, workers: int = 1) -> SimulationReport:
    """Execute a scenario and return its report.

    Deterministic given (scenario, seed): rerunning, or running with a
    different worker count, yields byte-identical CSV apart from the
    wall-clock row. A scenario too large for memory is a ScenarioError.
    """
    import numpy  # noqa: F401 - so that its first import is not timed

    workers = _size(workers, "workers", least=1)
    ok = scenario.paradigm == "fisher" or scenario.reps >= 1
    _require(scenario, ok, f"paradigm {scenario.paradigm!r} needs reps >= 1")
    report = SimulationReport(
        scenario=scenario.name,
        paradigm=scenario.paradigm,
        truth=scenario.truth,
        reps=scenario.reps,
        seed_root=scenario.seed.root,
        seed_stream=scenario.seed.stream,
    )
    started = time.perf_counter()
    try:
        _RUNNERS[scenario.paradigm][0](scenario, report, workers)
    except ScenarioError:
        raise
    except TestlabError as exc:
        raise ScenarioError(f"scenario {scenario.name}: {exc}") from exc
    except MemoryError as exc:
        raise ScenarioError(
            f"scenario {scenario.name}: its reps or sizes need more memory "
            "than is available"
        ) from exc
    report.wall_clock = time.perf_counter() - started
    return report


@dataclass(frozen=True)
class OptionalStoppingReport:
    """Per-look cumulative rejection rates for naive repeated testing,
    side by side with the ratio monitor's crossing rates."""

    looks: tuple
    alpha: float
    s: float
    cumulative_reject: tuple  # MCEstimate per look
    lr_crossed: tuple  # MCEstimate per look


def optional_stopping_alpha(
    null,
    alpha: float,
    looks,
    reps: int,
    seed: Seed,
    s: Optional[float] = None,
    lr_eta: Optional[float] = None,
    alternative: Optional[FiniteDistribution] = None,
) -> OptionalStoppingReport:
    """Monitor a true null at several looks and measure the error inflation.

    At each look the running data is retested at level alpha; the chance of
    at least one rejection grows past alpha from the second look on. The
    same paths are monitored by the likelihood ratio against threshold s
    (default 1/alpha), whose crossing probability stays below 1/s at every
    look. ``null`` is a zero-effect GaussianPair (the ratio monitor then
    uses the effect ``lr_eta``, default half a sigma) or a two-symbol
    FiniteDistribution (supply the ``alternative`` the monitor tests
    against); either argument given with the other kind of null is a
    ScenarioError.
    """
    looks = tuple(_size(n, "each look", ScenarioError) for n in looks)
    reps = _size(reps, "reps", ScenarioError)
    if not isinstance(null, (GaussianPair, FiniteDistribution)):
        raise ScenarioError(f"cannot monitor a {type(null).__name__}")
    finite = isinstance(null, FiniteDistribution)
    if finite and alternative is None:
        raise ScenarioError(
            "a finite null needs the alternative the ratio monitor tests"
        )
    if finite and lr_eta is not None:
        raise ScenarioError("lr_eta applies only to a Gaussian null")
    if not finite and alternative is not None:
        raise ScenarioError("alternative applies only to a finite null")
    params = {"alpha": alpha, "looks": " ".join(map(str, looks)), "s": s,
              "lr-eta": lr_eta}
    report = run(Scenario(
        name="optional-stopping",
        paradigm="optional-stopping",
        reps=reps,
        seed=seed,
        h=null if finite else None,
        k=alternative if finite else None,
        gaussian=None if finite else null,
        params={key: str(v) for key, v in params.items() if v is not None},
    ))
    return OptionalStoppingReport(
        looks=looks,
        alpha=report.values["alpha"],
        s=report.values["s"],
        cumulative_reject=tuple(
            report.rates[f"cumulative_reject@{n}"] for n in looks
        ),
        lr_crossed=tuple(report.rates[f"lr_crossed@{n}"] for n in looks),
    )


def robbins_violation_probability(
    h: FiniteDistribution,
    k: FiniteDistribution,
    s: float,
    horizon: int,
    reps: int,
    seed: Seed,
) -> MCEstimate:
    """Fraction of H-generated paths whose likelihood ratio ever reaches s
    within the horizon.

    However the alternative is chosen, this probability is at most 1/s,
    so an unbounded ratio threshold keeps its error guarantee without any
    look schedule. This is the crossing rate of an lr scenario in horizon
    mode, so it is reproducible and independent of the worker count.
    """
    dist._real(s, "threshold", dist._ABOVE_1, dist._IN_FLOATS)  # float(s) becomes the param
    reps = _size(reps, "reps", ScenarioError)
    scenario = Scenario(
        name="robbins",
        paradigm="lr",
        reps=reps,
        seed=seed,
        h=h,
        k=k,
        params={"s": repr(float(s)), "horizon": str(horizon)},
    )
    return run(scenario).rates["crossing_rate"]


def evidence_rate(
    h: FiniteDistribution,
    k: FiniteDistribution,
    n: int,
    reps: int,
    seed: Seed,
) -> MCEstimate:
    """Mean of (1/n) ln r_n over K-generated samples.

    As n grows this concentrates on D(k || h), which must be finite here.
    """
    n, reps = _size(n, "n"), _size(reps, "reps")
    if n < 1 or reps < 1:
        raise InputError("n and reps must be at least 1")
    if info_geometry.kl(k, h).is_infinite:
        raise InfiniteDivergenceError(
            "evidence rate needs D(k||h) finite; the supports differ"
        )
    return mean_estimate(_sum_log_lr(k, log_ratio_table(h, k), n, reps, seed, 1) / n)


def family_wise_error(
    m: int,
    family_alpha: float,
    scheme: str,
    reps: int,
    seed: Seed,
    eta: float = 0.5,
    n: int = 25,
    sigma: float = 1.0,
):
    """FWER under m independent true nulls, plus per-test power at a fixed
    alternative, when each test runs at the adjusted per-test alpha.

    Returns (per_test_alpha, fwer: MCEstimate, analytic_power, mc_power).
    Splitting the budget keeps the estimated FWER under family_alpha, and
    the analytic per-test power falls as m grows: the cost of adjustment.
    """
    import numpy as np

    m, reps = _size(m, "m", ScenarioError), _size(reps, "reps", ScenarioError)
    n = _size(n, "n", ScenarioError, least=1)
    if m < 1 or reps < 1:
        raise ScenarioError("m and reps must be at least 1")
    dist._real(sigma, "sigma", dist._POSITIVE, error=ScenarioError)
    dist._real(eta, "eta", dist._FINITE, error=ScenarioError)
    per_test = neyman_pearson.adjust_alpha(family_alpha, m, scheme)
    z_crit = -gaussian_quantile(per_test)
    shift = eta * math.sqrt(n) / sigma
    analytic_power = gaussian_cdf(shift - z_crit)

    def draw(z):  # m null statistics, then one alternative
        any_null = np.any(z[..., :m] >= z_crit, axis=-1)
        return np.stack((any_null, z[..., m] + shift >= z_crit), axis=-1)

    out = _replicate(seed, 1, np.zeros((reps, 2), bool), m + 1, "standard_normal", draw)
    any_reject, power_hit = out.sum(0)
    return (
        per_test,
        rate_estimate(int(any_reject), reps),
        analytic_power,
        rate_estimate(int(power_hit), reps),
    )
