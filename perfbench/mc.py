"""Monte Carlo workloads: generated scenario files run through harness.run.

Every scenario is written as an INI file from the workload seed, loaded
through ``harness.load_scenario`` and run at 1 and at 2 workers, in whole
rounds, until the time budget is spent. Each run is one operation. It
fails if it raises, if its CSV (minus the wall-clock row) differs from the
scenario's first run, or if the scenario misses its statistical target at
5 standard errors.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from common import (
    OVERHEAD_PAIRS,
    WORKERS,
    Result,
    csv_body,
    digest,
    normal_cdf,
    rate_se,
    weighted_quantile,
)

Z = 5.0  # statistical targets are checked at +/- 5 standard errors

HALF = (("a", Fraction(1, 2)), ("b", Fraction(1, 2)))


@dataclass
class Spec:
    """One generated scenario: its file body and the target it must meet."""

    name: str
    text: str
    reps: int
    check: Callable  # report -> failure message, or None


@dataclass
class _Runs:
    """Every run of one scenario within a pass."""

    spec: Spec
    times: dict = field(default_factory=lambda: {w: [] for w in WORKERS})
    reference: Optional[str] = None
    report: object = None
    errors: list = field(default_factory=list)
    mismatches: int = 0


def scenario_text(name, paradigm, truth, reps, seed_root, params, h=None, k=None,
                  gaussian=None) -> str:
    lines = [
        "[scenario]",
        f"name = {name}",
        f"paradigm = {paradigm}",
        f"truth = {truth}",
        f"reps = {reps}",
        f"seed-root = {seed_root}",
    ]
    for section, dist in (("hypothesis-h", h), ("hypothesis-k", k)):
        if dist is not None:
            lines += ["", f"[{section}]"]
            lines += [f"{sym} = {p.numerator}/{p.denominator}" for sym, p in dist]
    if gaussian is not None:
        mu_h, mu_k, sigma = gaussian
        lines += ["", "[gaussian]", f"mu-h = {mu_h}", f"mu-k = {mu_k}", f"sigma = {sigma}"]
    lines += ["", "[params]"] + [f"{key} = {value}" for key, value in params.items()]
    return "\n".join(lines) + "\n"


def random_dist(rng: random.Random, k: int, max_weight: int = 9):
    """Exact distribution over the first k letters, weights 1..max_weight."""
    weights = [rng.randint(1, max_weight) for _ in range(k)]
    total = sum(weights)
    return tuple((chr(ord("a") + i), Fraction(w, total)) for i, w in enumerate(weights))


def kl_nats(p, q) -> float:
    return sum(float(a) * math.log(a / b) for (_, a), (_, b) in zip(p, q) if a > 0)


# --- statistical targets ---------------------------------------------------


def _at_most(key, bound):
    """Rate `key` stays at or below `bound` (a guarantee of the method)."""

    def check(report):
        est = report.rates[key]
        limit = bound + Z * rate_se(bound, report.reps)
        if est.value > limit:
            return f"{key} {est.value:.5f} > {bound:.5f} + {Z:g} SE"
        return None

    return check


def _near(key, target, se=None):
    """Estimate `key` lies within 5 SE of `target`; SE from the report
    unless the binomial SE at the target is meant."""

    def check(report):
        est = report.rates[key]
        s = est.se if se is None else se(report.reps)
        if abs(est.value - target) > Z * s:
            return f"{key} {est.value:.6f} vs target {target:.6f} beyond {Z:g} SE ({s:.2e})"
        return None

    return check


def _all(*checks):
    def check(report):
        for c in checks:
            message = c(report)
            if message:
                return message
        return None

    return check


def _inflated(key, alpha):
    def check(report):
        est = report.rates[key]
        if not est.value - Z * est.se > alpha:
            return f"{key} {est.value:.5f} not above {alpha} by {Z:g} SE"
        return None

    return check


def _decide_k_range(h, k, truth, n, prior_h):
    """Exact P(decide K) for n iid draws from `truth`, by enumerating count
    vectors; count vectors whose log posterior odds lie within 1e-9 of 0
    are ties either way, so the result is an interval (low, high)."""
    sizes = len(h)
    ratios = [pk / ph for (_, ph), (_, pk) in zip(h, k)]
    prior = Fraction(prior_h)
    prior_odds = (1 - prior) / prior
    low = tie = 0.0
    for cut in itertools.combinations(range(n + sizes - 1), sizes - 1):
        bounds = (-1,) + cut + (n + sizes - 1,)
        counts = [bounds[i + 1] - bounds[i] - 1 for i in range(sizes)]
        prob = math.factorial(n)
        odds = prior_odds
        for c, (_, pt), r in zip(counts, truth, ratios):
            prob = prob * pt**c / math.factorial(c)
            odds *= r**c
        log_odds = math.log(odds.numerator) - math.log(odds.denominator)
        if abs(log_odds) < 1e-9:
            tie += float(prob)
        elif log_odds > 0:
            low += float(prob)
    return low, low + tie


def _decide_k_matches(h, k, truth, n, prior_h):
    low, high = _decide_k_range(h, k, truth, n, prior_h)

    def check(report):
        est = report.rates["decide_k_rate"]
        s = rate_se(min(max(0.5 * (low + high), 0.0), 1.0), report.reps)
        if not low - Z * s <= est.value <= high + Z * s:
            return f"decide_k_rate {est.value:.5f} outside exact [{low:.5f}, {high:.5f}] +/- {Z:g} SE"
        return None

    return check


# --- workloads ------------------------------------------------------------


def _reps(full, scale, floor=20):
    return max(floor, int(round(full * scale)))


def long_paths(rng: random.Random, scale: float = 1.0) -> list[Spec]:
    """Few replications of long finite-alphabet paths: index mapping and
    the per-replication cumsum dominate; one RNG per 10 000 draws."""
    specs = []
    alt = (("a", Fraction(3, 4)), ("b", Fraction(1, 4)))
    for s in (8, 16):
        name = f"c04-ratio-crossing-s{s}"
        reps = _reps(2500, scale)
        text = scenario_text(name, "lr", "H", reps, rng.getrandbits(62),
                             {"s": s, "horizon": 10_000}, h=HALF, k=alt)
        specs.append(Spec(name, text, reps, _at_most("crossing_rate", 1.0 / s)))
    k_dist = (("a", Fraction(1, 4)), ("b", Fraction(3, 4)))
    reps = _reps(200, scale)
    text = scenario_text("c05-evidence-rate", "lr", "K", reps, rng.getrandbits(62),
                         {"s": 8, "n": 10_000}, h=HALF, k=k_dist)
    specs.append(Spec("c05-evidence-rate", text, reps,
                      _near("mean_log_lr_per_n", kl_nats(k_dist, HALF))))
    h8, k8 = random_dist(rng, 8), random_dist(rng, 8)
    reps = _reps(1000, scale)
    text = scenario_text("gen-crossing-k8", "lr", "H", reps, rng.getrandbits(62),
                         {"s": 8, "horizon": 10_000}, h=h8, k=k8)
    specs.append(Spec("gen-crossing-k8", text, reps, _at_most("crossing_rate", 1.0 / 8)))
    return specs


def many_reps(rng: random.Random, scale: float = 1.0) -> list[Spec]:
    """Many replications of short samples: per-replication fixed costs
    (Seed.rng, Python in the body) dominate, and the exact cutoff search
    of finite optional stopping runs inside a simulation."""
    specs = []
    for n in (1, 16):
        target = normal_cdf(-0.5 * math.sqrt(n) / 2.0)
        for truth, label in (("H", "null"), ("K", "alt")):
            name = f"c09-midpoint-n{n}-{label}"
            reps = _reps(5000, scale)
            text = scenario_text(name, "np", truth, reps, rng.getrandbits(62),
                                 {"n": n}, gaussian=(0, 0.5, 1))
            specs.append(Spec(name, text, reps, _near(
                "error_rate", target, lambda r, p=target: rate_se(p, r))))
    for k in (2, 4, 8):
        uniform = tuple((chr(ord("a") + i), Fraction(1, k)) for i in range(k))
        for n in (100, 1000):
            name = f"c11-universal-null-k{k}-n{n}"
            reps = _reps(1000, scale)
            text = scenario_text(name, "hoeffding", "H", reps, rng.getrandbits(62),
                                 {"n": n, "delta": 0.05}, h=uniform)
            specs.append(Spec(name, text, reps, _at_most("reject_rate", 0.05)))
    alt = (("a", Fraction(3, 4)), ("b", Fraction(1, 4)))
    reps = _reps(1000, scale)
    text = scenario_text("c11-universal-power", "hoeffding", "K", reps, rng.getrandbits(62),
                         {"n": 1000, "delta": 0.05}, h=HALF, k=alt)

    def powerful(report):
        value = report.rates["reject_rate"].value
        return None if value > 0.99 else f"reject_rate {value:.4f} <= 0.99"

    specs.append(Spec("c11-universal-power", text, reps, powerful))
    # the inflation check needs its full replication count to have power
    reps = 10_000
    text = scenario_text("c12-optional-stopping", "optional-stopping", "H", reps,
                         rng.getrandbits(62),
                         {"alpha": 0.05, "looks": "20 40 60 80 100", "s": 20, "lr-eta": 0.5},
                         gaussian=(0, 0, 1))
    specs.append(Spec("c12-optional-stopping", text, reps, _all(
        _inflated("cumulative_reject@40", 0.05), _at_most("lr_crossed@100", 1.0 / 20))))
    for paradigm, truth in (("bayes", "H"), ("map", "K")):
        h3, k3 = random_dist(rng, 3), random_dist(rng, 3)
        prior_h = rng.choice(("0.5", "0.25", "0.75", "0.4", "0.6"))
        reps = _reps(5000, scale)
        name = f"gen-{paradigm}-k3-n20"
        text = scenario_text(name, paradigm, truth, reps, rng.getrandbits(62),
                             {"n": 20, "prior-h": prior_h}, h=h3, k=k3)
        truth_dist = h3 if truth == "H" else k3
        specs.append(Spec(name, text, reps,
                          _decide_k_matches(h3, k3, truth_dist, 20, float(prior_h))))
    lean = rng.randint(1, 4)
    k2 = (("a", Fraction(10 - lean, 20)), ("b", Fraction(10 + lean, 20)))
    reps = _reps(5000, scale)
    text = scenario_text("gen-optional-stopping-finite", "optional-stopping", "H", reps,
                         rng.getrandbits(62),
                         {"alpha": 0.05, "looks": "50 100 200", "s": 20}, h=HALF, k=k2)
    specs.append(Spec("gen-optional-stopping-finite", text, reps, _all(
        _at_most("cumulative_reject@50", 0.05), _at_most("lr_crossed@200", 1.0 / 20))))
    return specs


WORKLOADS = {"mc-long-paths": long_paths, "mc-many-reps": many_reps}


class McWorkload:
    def __init__(self, name: str, workdir: Path, seed: int, scale: float = 1.0):
        self.specs = WORKLOADS[name](random.Random(seed), scale)
        self.input_files = []
        for spec in self.specs:
            path = workdir / f"{spec.name}.scenario"
            path.write_text(spec.text, encoding="utf-8")
            self.input_files.append(path)

    def _load(self):
        from testlab import harness

        return [harness.load_scenario(p) for p in self.input_files]

    def _run_round(self, scenarios, runs, workers_list=WORKERS, tracer=None) -> float:
        """Run every scenario at each worker count; returns the replications
        per second of the runs that succeeded."""
        from testlab import harness

        reps = seconds = 0.0
        for workers in workers_list:
            for op, (scenario, r) in enumerate(zip(scenarios, runs), start=1):
                if tracer is not None:
                    tracer.set_op(op)
                started = time.perf_counter()
                try:
                    report = harness.run(scenario, workers=workers)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    r.errors.append(repr(exc))
                    continue
                elapsed = time.perf_counter() - started
                r.times[workers].append(elapsed)
                reps += r.spec.reps
                seconds += elapsed
                body = csv_body(report)
                if r.reference is None:
                    r.reference, r.report = body, report
                elif body != r.reference:
                    r.mismatches += 1
        return reps / seconds if seconds else 0.0

    def measure(self, seconds: float) -> Result:
        scenarios = self._load()
        runs = [_Runs(spec) for spec in self.specs]
        started = time.perf_counter()
        while True:
            self._run_round(scenarios, runs)
            if time.perf_counter() - started >= seconds:
                break
        result = self._tally(runs)
        for workers, metric in zip(WORKERS, ("ops_per_s", "ops_per_s_2w")):
            result.metrics[metric] = (_throughput(runs, workers), "1/s")
        # a replication is charged its scenario's median time per replication
        per_rep = [(statistics.median(r.times[1]) / r.spec.reps, r.spec.reps)
                   for r in runs if r.times[1]]
        samples = sum(w for _, w in per_rep)
        for q, metric in ((0.5, "op_p50_ms"), (0.99, "op_p99_ms")):
            result.metrics[metric] = (1e3 * weighted_quantile(per_rep, q), "ms")
        rounds = min((len(r.times[1]) for r in runs), default=0)
        result.lines.append(
            f"ops are replications; {rounds} round(s) per worker count; "
            f"p50/p99 over {samples} replications, each charged its scenario's "
            f"median per-replication time at 1 worker ({int(samples * 0.01)} beyond p99)")
        return result

    def trace(self, tracer_factory) -> tuple[Result, list]:
        """Untraced and traced rounds at 1 worker, alternated OVERHEAD_PAIRS
        times, then one traced round at 2 workers.

        Returns the result, whose failures include any traced CSV that
        differs from the untraced one, and two tracers: the first traced
        round at 1 worker and the round at 2 workers.
        """
        runs = [_Runs(spec) for spec in self.specs]
        plain, traced, tracers = [], [], []
        for _ in range(OVERHEAD_PAIRS):
            plain.append(self._run_round(self._load(), runs, (1,)))
            rate, tracer = self._traced_round(runs, 1, tracer_factory)
            traced.append(rate)
            tracers = tracers or [tracer]
        tracers.append(self._traced_round(runs, 2, tracer_factory)[1])
        result = self._tally(runs)
        # failed output checks count against the layer the runs entered
        tracers[0].errors["harness"] += result.failed - sum(len(r.errors) for r in runs)
        plain, traced = statistics.median(plain), statistics.median(traced)
        result.metrics["trace.overhead"] = (1.0 - traced / plain, "ratio")
        result.lines.append(
            f"tracing overhead at 1 worker, medians of {OVERHEAD_PAIRS} alternated "
            f"rounds: {plain:.1f} reps/s untraced, {traced:.1f} reps/s traced")
        return result, tracers

    def _traced_round(self, runs, workers, tracer_factory):
        tracer = tracer_factory()
        tracer.install()
        try:
            return self._run_round(self._load(), runs, (workers,), tracer), tracer
        finally:
            tracer.uninstall()

    def _tally(self, runs) -> Result:
        result = Result()
        for r in runs:
            n_runs = sum(len(t) for t in r.times.values()) + len(r.errors)
            result.attempted += n_runs
            for error in r.errors:
                result.fail(f"{r.spec.name}: raised {error}")
            if r.mismatches:
                result.fail(f"{r.spec.name}: CSV differs between runs or worker counts",
                            r.mismatches)
            message = r.spec.check(r.report) if r.report is not None else "no run succeeded"
            if message:
                result.fail(f"{r.spec.name}: {message}", n_runs - len(r.errors))
            times = " ".join(
                f"w{w}=[{', '.join(f'{x:.3f}' for x in t)}]s" for w, t in r.times.items())
            result.lines.append(
                f"{r.spec.name}: reps={r.spec.reps} {times} "
                f"csv_sha256={digest(r.reference or '')} check={'FAIL' if message else 'ok'}")
        return result


def _throughput(runs, workers) -> float:
    """Replications per second: all reps over the sum of per-scenario
    median run times at this worker count."""
    timed = [r for r in runs if r.times[workers]]
    total = sum(statistics.median(r.times[workers]) for r in timed)
    return sum(r.spec.reps for r in timed) / total if total else 0.0
