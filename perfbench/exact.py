"""The exact-decisions workload: a seeded stream of calls on exact-rational
hypotheses, with no RNG and no numpy in the hot path.

One block of 1000 operations is generated from the seed and replayed as a
closed loop: about 95% short calls in the style of criterion-08 (k = 2-3,
weights <= 9, samples of 1-10), 4% long calls (samples of 200-2000 over
k = 2-8, exact binomial tails at n <= 500, the c01-c03 tails) and 1%
in-process ``cli.main`` calls on generated files. Call sizes (alphabet
size, sample length, n) follow from a call's position in the block and
long-call weights are fixed per k; the seed draws only the values, so the
cost of a block barely depends on it.

Outputs are checked against oracles computed here, outside the timed
region: an independent Fraction product over counts for likelihood
ratios, ``math.comb`` sums for tails, mpmath divergences at 1e-12, and
threshold/margin verdict agreement. Every replay must also reproduce the
first replay's outputs exactly.
"""

from __future__ import annotations

import csv
import math
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import mpmath

from common import OVERHEAD_PAIRS, Result, quantile

SHORT_CASES = 190  # five calls each: 950 short calls per block
LONG_KINDS = ("map_decide", "hoeffding_test", "loglr_kl_identity_check",
              "binomial_tail", "paper_tail")
LONG_PER_KIND = 8  # 40 long calls per block
CLI_KINDS = ("lr", "map", "hoeffding", "fisher", "power", "np")
CLI_CALLS = 10
THRESHOLDS = (1, 2, 8, 16, Fraction(3, 2), Fraction(19, 7), 4.0)
PRIORS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))
TIE = 1e-9  # decisions whose exact log score is this close to 0 may go either way
SHAPE_SEED = 0  # hypotheses come from this fixed stream, samples from --seed

mpmath.mp.dps = 40


# --- oracles ------------------------------------------------------------------


def ratio_from_counts(h, k, counts) -> Fraction:
    """r_n = prod (p_K/p_H)^c over the symbols counted."""
    r = Fraction(1)
    for ph, pk, c in zip(h, k, counts):
        if c:
            r *= (pk / ph) ** c
    return r


def log_fraction(r: Fraction) -> float:
    return math.log(r.numerator) - math.log(r.denominator)


def kl_mp(p, q) -> float:
    """D(p || q) in nats for Fraction vectors, by mpmath."""
    total = mpmath.mpf(0)
    for a, b in zip(p, q):
        if a:
            a_mp = mpmath.mpf(a.numerator) / a.denominator
            total += a_mp * mpmath.log(a_mp * b.denominator / b.numerator)
    return float(total)


def close(x, y, tol=1e-12) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def tail_ge(n, kk, theta) -> tuple[Fraction, Fraction]:
    """(P(X >= kk), P(X = kk)) for X ~ Binomial(n, theta), exactly."""
    terms = [math.comb(n, j) * theta**j * (1 - theta) ** (n - j) for j in range(kk, n + 1)]
    return sum(terms, Fraction(0)), terms[0]


def normal_quantile_mp(p: float):
    return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)


@dataclass
class Op:
    """One call of the stream. ``collect`` turns the timed call's return
    value into the output that is compared and checked."""

    kind: str
    module: str  # the layer the call enters
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # output -> failure message
    collect: Optional[Callable[[object], object]] = None


class Raised:
    def __init__(self, exc):
        self.text = repr(exc)

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self):
        return f"raised {self.text}"


_UNSET = object()


# --- stream generation ------------------------------------------------------


def _labels(k):
    return tuple(chr(ord("a") + i) for i in range(k))


def _weights_dist(weights):
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def _spread(i, count, low, high):
    """The midpoint of the i-th of `count` equal strata of [low, high]."""
    return int(low + (high - low) * (i + 0.5) / count)


class ExactWorkload:
    def __init__(self, workdir: Path, seed: int, scale: float = 1.0):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.shape = random.Random(SHAPE_SEED)
        self.scale = scale
        self.input_files = []
        self.evidence_samples = 0  # samples whose likelihood ratio some call needs
        self._cases = []  # (kind, module, call factory or callable, check, collect)
        self._short_cases()
        self._long_calls()
        self._cli_calls()
        self.blocks = [self._block(caller) for caller in (0, 1)]

    def _block(self, caller):
        ops = []
        for kind, module, call, check, collect in self._cases:
            if kind.startswith("cli."):
                call = call(caller)
            ops.append(Op(kind, module, call, check, collect))
        return ops

    def _add(self, kind, module, call, check, collect=None):
        self._cases.append((kind, module, call, check, collect))

    # short calls: criterion-08 style ------------------------------------------

    def _short_cases(self):
        from testlab import dist, evidential

        rng, shape = self.rng, self.shape
        for i in range(SHORT_CASES):
            # alphabet sizes and sample lengths cycle and the hypotheses come
            # from a fixed stream, so every seed gives the same mix of call
            # costs; the seed draws the samples, thresholds and priors
            k = 2 + i % 2
            labels = _labels(k)
            hp = _weights_dist([shape.randint(1, 9) for _ in range(k)])
            kp = _weights_dist([shape.randint(1, 9) for _ in range(k)])
            h = dist.FiniteDistribution(labels, hp)
            kd = dist.FiniteDistribution(labels, kp)
            xs = [rng.choice(labels) for _ in range(1 + (i // 2) % 10)]
            counts = [xs.count(x) for x in labels]
            r = ratio_from_counts(hp, kp, counts)
            if i % 50 == 0:
                s = r if r >= 1 else 1 / r  # exact boundary: s equals the ratio
            else:
                s = THRESHOLDS[rng.randrange(len(THRESHOLDS))]
            prior = PRIORS[rng.randrange(len(PRIORS))]
            priors = evidential.Priors(prior)
            oracle_ev = evidential.LogEvidence(log_fraction(r), len(xs), None, r)
            self._short_ops(h, kd, hp, kp, xs, counts, r, s, priors, prior, oracle_ev)

    def _short_ops(self, h, kd, hp, kp, xs, counts, r, s, priors, prior, oracle_ev):
        from testlab import evidential, info_geometry

        s_exact = s if isinstance(s, Fraction) else Fraction(s)
        expect = "accept_k" if r >= s_exact else "accept_h" if r <= 1 / s_exact else "continue"

        def check_ev(ev):
            if isinstance(ev, Raised):
                return str(ev)
            if ev.exact_ratio != r or ev.falsified is not None or ev.n != len(xs):
                return f"evidence {ev} != exact ratio {r}"
            if not close(ev.sum_log_lr, log_fraction(r)):
                return f"log ratio {ev.sum_log_lr!r} != {log_fraction(r)!r}"
            return None

        def check_verdict(v):
            if isinstance(v, Raised) or v.value != expect:
                return f"threshold verdict {v} at s={s} for ratio {r}, expected {expect}"
            return None

        n = len(xs)
        emp = [Fraction(c, n) for c in counts]
        d_h, d_k = kl_mp(emp, hp), kl_mp(emp, kp)
        self.evidence_samples += 1

        def check_margin(m):
            if isinstance(m, Raised):
                return str(m)
            accept_k = m.verdict.value == "accept_k"
            if accept_k != (r >= s_exact):
                return f"margin verdict {m.verdict} disagrees with ratio {r} at s={s}"
            if not (close(m.divergence_h, d_h) and close(m.divergence_k, d_k)):
                return f"margin divergences {m.divergence_h!r}, {m.divergence_k!r} != {d_h!r}, {d_k!r}"
            return None

        self._add("evidence_from_sample", "evidential",
                  lambda: evidential.evidence_from_sample(h, kd, xs), check_ev)
        self._add("threshold_verdict", "evidential",
                  lambda: evidential.threshold_verdict(oracle_ev, s), check_verdict)
        self._add("lr_threshold_as_kl_margin", "info_geometry",
                  lambda: info_geometry.lr_threshold_as_kl_margin(h, kd, xs, s), check_margin)
        self._add("map_decide", "info_geometry",
                  lambda: info_geometry.map_decide(h, kd, priors, xs),
                  _map_check(r, prior))
        d_hk = kl_mp(hp, kp)
        self._add("kl", "info_geometry", lambda: info_geometry.kl(h, kd),
                  lambda d: None if not isinstance(d, Raised) and close(d.nats, d_hk)
                  else f"kl {d} != {d_hk!r}")

    # long calls ------------------------------------------------------------------

    def _long_calls(self):
        for i in range(LONG_PER_KIND):
            for kind in LONG_KINDS:
                if kind == "binomial_tail":
                    theta = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))[i % 3]
                    self._binomial_call(_spread(i, LONG_PER_KIND, 100, 500), theta)
                elif kind == "paper_tail":
                    self._paper_tail(i % 4)
                else:
                    n = _spread(i, LONG_PER_KIND, 200, 2000)
                    self._sample_call(kind, max(20, int(n * self.scale)), 2 + i % 7)

    def _sample_call(self, kind, n, k):
        from testlab import dist, evidential, info_geometry

        rng = self.rng
        labels = _labels(k)
        # weights fixed per k, only their order is random, so exact-ratio
        # sizes (and so the cost) do not depend on the seed
        hw, kw = list(range(1, k + 1)), list(range(k + 1, 2 * k + 1))
        rng.shuffle(hw)
        rng.shuffle(kw)
        hp, kp = _weights_dist(hw), _weights_dist(kw)
        h = dist.FiniteDistribution(labels, hp)
        kd = dist.FiniteDistribution(labels, kp)
        xs = rng.choices(labels, weights=hw, k=n)
        counts = [xs.count(x) for x in labels]
        emp = [Fraction(c, n) for c in counts]
        if kind != "hoeffding_test":
            self.evidence_samples += 1
        if kind == "map_decide":
            prior = PRIORS[rng.randrange(len(PRIORS))]
            priors = evidential.Priors(prior)
            r = ratio_from_counts(hp, kp, counts)
            self._add(kind, "info_geometry",
                      lambda: info_geometry.map_decide(h, kd, priors, xs), _map_check(r, prior))
        elif kind == "hoeffding_test":
            cfg = info_geometry.UniversalTestConfig(delta=0.05)
            stat = kl_mp(emp, hp)
            radius = ((k - 1) * math.log(n + 1) + math.log(20)) / n

            def check(res):
                if isinstance(res, Raised):
                    return str(res)
                if not (close(res.statistic, stat) and close(res.radius, radius)):
                    return f"hoeffding {res} vs statistic {stat!r}, radius {radius!r}"
                if abs(stat - radius) > TIE and (res.decision.value == "accept_h") != (stat <= radius):
                    return f"hoeffding decision {res.decision} with {stat!r} vs {radius!r}"
                return None

            self._add(kind, "info_geometry",
                      lambda: info_geometry.hoeffding_test(h, xs, cfg), check)
        else:
            lhs = log_fraction(ratio_from_counts(hp, kp, counts))
            rhs = n * (kl_mp(emp, hp) - kl_mp(emp, kp))

            def check(pair):
                if isinstance(pair, Raised):
                    return str(pair)
                scale = max(1.0, abs(lhs))
                if abs(pair[0] - lhs) > 1e-9 * scale or abs(pair[1] - rhs) > 1e-9 * scale:
                    return f"identity sides {pair} != ({lhs!r}, {rhs!r})"
                return None

            self._add(kind, "info_geometry",
                      lambda: info_geometry.loglr_kl_identity_check(h, kd, xs), check)

    def _binomial_call(self, n, theta):
        from testlab import fisher

        n = max(10, int(n * self.scale))
        kk = n // 2 + self.rng.randint(0, 4)
        self._add("binomial_tail", "fisher",
                  lambda: fisher.binomial_tail(n, kk, theta),
                  _tail_check(*tail_ge(n, kk, theta), n - kk + 1))

    def _paper_tail(self, which):
        from testlab import dist, fisher

        if which < 2:  # c01 and c02: 80 and 82 successes of 82 at theta 1/2
            kk = 80 if which == 0 else 82
            self._add("binomial_tail", "fisher",
                      lambda: fisher.binomial_tail(82, kk, Fraction(1, 2)),
                      _tail_check(*tail_ge(82, kk, Fraction(1, 2)), 83 - kk))
            return
        # c03: identical point probability 1/50, lower tails 3/100 and 42/100
        probs = ((Fraction(1, 100), Fraction(1, 50), Fraction(57, 100), Fraction(2, 5)),
                 (Fraction(2, 5), Fraction(1, 50), Fraction(29, 100), Fraction(29, 100)))[which - 2]
        d = dist.FiniteDistribution((1, 2, 3, 4), probs)
        le = fisher.TailDirection.LESS_EQUAL
        self._add("p_value", "fisher", lambda: fisher.p_value(d, 2, le),
                  _tail_check(probs[0] + probs[1], probs[1], 2))

    # CLI calls -----------------------------------------------------------------------

    def _cli_calls(self):
        for j in range(CLI_CALLS):
            self._cli_call(j, CLI_KINDS[j % len(CLI_KINDS)])

    def _cli_call(self, j, kind):
        rng = self.rng
        k = 2 + j % 3
        labels = _labels(k)
        hw = [self.shape.randint(1, 9) for _ in range(k)]
        hp = _weights_dist(hw)
        kp = _weights_dist([self.shape.randint(1, 9) for _ in range(k)])
        n = max(10, int(_spread(j, CLI_CALLS, 100, 300) * self.scale))
        xs = rng.choices(labels, weights=hw, k=n)
        h_file = self._write(f"cli{j}-h.tsv", "".join(
            f"{x}\t{p.numerator}/{p.denominator}\n" for x, p in zip(labels, hp)))
        k_file = self._write(f"cli{j}-k.tsv", "".join(
            f"{x}\t{p.numerator}/{p.denominator}\n" for x, p in zip(labels, kp)))
        d_file = self._write(f"cli{j}-data.txt", "".join(f"{x}\n" for x in xs))
        counts = [xs.count(x) for x in labels]
        r = ratio_from_counts(hp, kp, counts)
        if kind in ("lr", "map"):
            self.evidence_samples += 1
        if kind == "lr":
            argv = ["lr", "--h-dist", h_file, "--k-dist", k_file, "--data", d_file, "-s", "8"]
            verdict = ("accept_k" if r >= 8 else "accept_h" if r <= Fraction(1, 8)
                       else "continue")
            check = _cli_check(lambda row: row["verdict"] == verdict, f"verdict {verdict}")
        elif kind == "map":
            argv = ["map", "--h-dist", h_file, "--k-dist", k_file, "--prior-h", "1/2", d_file]
            map_ok = _map_check(r, Fraction(1, 2))
            check = _cli_check(lambda row: map_ok(row["decision"]) is None, "map decision")
        elif kind == "hoeffding":
            argv = ["hoeffding", "--hypothesis", h_file, "--delta", "0.05", d_file]
            stat = kl_mp([Fraction(c, n) for c in counts], hp)
            radius = ((k - 1) * math.log(n + 1) + math.log(20)) / n
            check = _cli_check(
                lambda row: close(float(row["statistic_nats"]), stat, 1e-11)
                and (abs(stat - radius) <= TIE
                     or (row["decision"] == "accept_h") == (stat <= radius)),
                f"statistic {stat!r} vs radius {radius!r}")
        elif kind == "fisher":
            fn = 200
            fk = rng.randint(100, 120)
            p, _ = tail_ge(fn, fk, Fraction(1, 2))
            argv = ["fisher", "--n", str(fn), "--k", str(fk), "--theta", "1/2"]
            text = f"{p.numerator}/{p.denominator}"
            check = _cli_check(lambda row: row["p_exact"] == text, f"p_exact {text}")
        elif kind == "power":
            eta = rng.choice((0.2, 0.25, 0.3, 0.4, 0.5))
            argv = ["power", "--alpha", "0.05", "--beta", "0.2", "--eta", str(eta)]
            exact = float(((normal_quantile_mp(0.95) + normal_quantile_mp(0.8)) / eta) ** 2)
            allowed = {math.ceil(exact - 1e-6), math.ceil(exact + 1e-6)}
            check = _cli_check(lambda row: int(row["n"]) in allowed, f"n in {allowed}")
        else:
            nn = rng.randint(4, 64)
            mu_k = rng.choice((0.25, 0.5, 1.0))
            argv = ["np", "--mu-h", "0", "--mu-k", str(mu_k), "--sigma", "1",
                    "--n", str(nn), "--alpha", "0.05"]
            z = normal_quantile_mp(0.95)
            cutoff = float(z / mpmath.sqrt(nn))
            beta = float(mpmath.ncdf(z - mu_k * mpmath.sqrt(nn)))
            check = _cli_check(
                lambda row: close(float(row["cutoff"]), cutoff, 1e-9)
                and close(float(row["beta"]), beta, 1e-9),
                f"cutoff {cutoff!r}, beta {beta!r}")
        self._add(f"cli.{kind}", "cli", self._cli_factory(argv, j), check, _read_out)

    def _cli_factory(self, argv, j):
        from testlab import cli

        def for_caller(caller):
            out = str(self.workdir / f"cli{j}-out{caller}.csv")
            full = argv + ["--format", "csv", "--out", out]
            call = lambda: (cli.main(full), out)  # noqa: E731
            return call

        return for_caller

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.input_files.append(path)
        return str(path)

    # running ---------------------------------------------------------------------

    def _run_block(self, ops, reference, latencies, tracer=None) -> dict:
        """Replay one block; returns {op index: executions that differ from
        the reference output}."""
        mismatches = {}
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.set_op(index + 1)
            started = time.perf_counter_ns()
            try:
                out = op.call()
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out = Raised(exc)
            latencies.append(time.perf_counter_ns() - started)
            if op.collect is not None and not isinstance(out, Raised):
                out = op.collect(out)
            if reference[index] is _UNSET:
                reference[index] = out
            elif out != reference[index]:
                mismatches[index] = mismatches.get(index, 0) + 1
        return mismatches

    def measure(self, seconds: float) -> Result:
        ops = self.blocks[0]
        reference = [_UNSET] * len(ops)
        mismatches = []
        pair_rates, replay_latencies = [], []
        replays = 0
        started = time.perf_counter()
        while True:
            lat = []
            mismatches.append(self._run_block(ops, reference, lat))
            replay_latencies.append(lat)
            pair_started = time.perf_counter()
            outcome = [None, None]
            threads = [
                threading.Thread(target=self._caller, args=(c, reference, outcome))
                for c in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pair_rates.append(2 * len(ops) / (time.perf_counter() - pair_started))
            mismatches.extend(outcome)
            replays += 3
            if time.perf_counter() - started >= seconds:
                break
        result = self._tally(reference, mismatches, replays)
        # each call's latency is its median over the single-caller replays,
        # which keeps a burst of noise on the host out of every figure
        latencies = [statistics.median(call) for call in zip(*replay_latencies)]
        result.metrics["ops_per_s"] = (1e9 * len(ops) / sum(latencies), "1/s")
        result.metrics["ops_per_s_2w"] = (statistics.median(pair_rates), "1/s")
        result.metrics["op_p50_ms"] = (quantile(latencies, 0.50) / 1e6, "ms")
        result.metrics["op_p99_ms"] = (quantile(latencies, 0.99) / 1e6, "ms")
        result.lines.append(
            f"{len(replay_latencies)} single-caller replays of {len(ops)} calls; "
            f"p50/p99 over the {len(ops)} calls' median latencies "
            f"({len(ops) // 100} beyond p99); 2-caller rate is the median of "
            f"{len(pair_rates)} concurrent replay pairs")
        return result

    def _caller(self, caller, reference, outcome):
        outcome[caller] = self._run_block(self.blocks[caller], reference, [])

    def trace(self, tracer_factory) -> tuple[Result, list]:
        """Untraced and traced single-caller replays, alternated
        OVERHEAD_PAIRS times; the first traced replay's tracer is returned."""
        ops = self.blocks[0]
        reference = [_UNSET] * len(ops)
        mismatches, plain, traced, tracers = [], [], [], []
        for _ in range(OVERHEAD_PAIRS):
            lat = []
            mismatches.append(self._run_block(ops, reference, lat))
            plain.append(sum(lat))
            lat = []
            tracer = tracer_factory()
            tracer.install()
            try:
                mismatches.append(self._run_block(ops, reference, lat, tracer))
            finally:
                tracer.uninstall()
            traced.append(sum(lat))
            tracers = tracers or [tracer]
        result = self._tally(reference, mismatches, 2 * OVERHEAD_PAIRS, tracers[0])
        plain, traced = statistics.median(plain), statistics.median(traced)
        result.metrics["trace.overhead"] = (1.0 - plain / traced, "ratio")
        result.lines.append(
            f"tracing overhead, medians of {OVERHEAD_PAIRS} alternated replays: "
            f"{len(ops) / plain * 1e9:.1f} calls/s untraced, "
            f"{len(ops) / traced * 1e9:.1f} calls/s traced")
        return result, tracers

    def _tally(self, reference, mismatches, replays, tracer=None) -> Result:
        result = Result(attempted=len(reference) * replays)
        bad_kinds = {}
        for index, (op, out) in enumerate(zip(self.blocks[0], reference)):
            message = op.check(out) if out is not _UNSET else "never ran"
            differing = sum(m.get(index, 0) for m in mismatches)
            if message:
                result.fail(f"{op.kind} #{index}: {message}", replays)
            elif differing:
                result.fail(f"{op.kind} #{index}: output differs between replays", differing)
            if (message or differing) and tracer is not None and not isinstance(out, Raised):
                tracer.errors[op.module] += 1
            if message or differing:
                bad_kinds[op.kind] = bad_kinds.get(op.kind, 0) + 1
        kinds = {}
        for op in self.blocks[0]:
            kinds[op.kind] = kinds.get(op.kind, 0) + 1
        result.lines.append("block: " + ", ".join(
            f"{kind} x{count}" + (f" ({bad_kinds[kind]} failing)" if kind in bad_kinds else "")
            for kind, count in kinds.items()))
        return result


def _map_check(r: Fraction, prior: Fraction):
    """MAP decides K iff (pi_k/pi_h) r_n > 1; exact ties may go either way."""
    odds = (1 - prior) / prior * r
    score = log_fraction(odds)

    def check(decision):
        if isinstance(decision, Raised):
            return str(decision)
        if abs(score) > TIE and decision != ("K" if score > 0 else "H"):
            return f"map decided {decision} with log posterior odds {score!r}"
        return None

    return check


def _tail_check(p, point, n_extreme):
    def check(rep):
        if isinstance(rep, Raised):
            return str(rep)
        if rep.p != p or rep.point_prob != point or rep.n_extreme != n_extreme:
            return f"tail {rep.p}, point {rep.point_prob} != {p}, {point}"
        return None

    return check


def _read_out(result):
    code, path = result
    try:
        text = Path(path).read_text(encoding="utf-8")
        os.remove(path)  # a later call that writes nothing must not read this
    except OSError:
        text = None
    return code, text


def _cli_check(predicate, expected):
    def check(out):
        if isinstance(out, Raised):
            return str(out)
        code, text = out
        if code != 0 or text is None:
            return f"exit code {code}"
        rows = list(csv.DictReader(text.splitlines()))
        try:
            ok = len(rows) == 1 and predicate(rows[0])
        except (KeyError, ValueError) as exc:
            return f"unreadable output {text!r}: {exc!r}"
        return None if ok else f"output {rows} does not match {expected}"

    return check
