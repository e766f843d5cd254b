"""Timing spans around testlab's public entry points, installed from outside.

A Tracer rebinds the module attributes that testlab's own modules look up
(``harness._finite_indices``, ``evidential.update``, ``Seed.rng`` and so
on) to wrappers that record one span per call: name, start, end, parent
span and operation id. Spans are kept in compact per-thread arrays while
the run goes on and reduced to per-layer figures when it ends. Nothing
under ``src/`` changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) of every traced entry point; the span is named
# "<module>.<attribute>" with a leading underscore dropped.
ENTRY_POINTS = (
    ("dist", "_finite_indices"),
    ("dist", "empirical"),
    ("dist", "gaussian_quantile"),
    ("harness", "load_scenario"),
    ("harness", "run"),
    ("fisher", "binomial_tail"),
    ("fisher", "p_value"),
    ("evidential", "update"),
    ("evidential", "evidence_from_sample"),
    ("evidential", "threshold_verdict"),
    ("evidential", "log_ratio_table"),
    ("info_geometry", "kl"),
    ("info_geometry", "lr_threshold_as_kl_margin"),
    ("info_geometry", "map_decide"),
    ("info_geometry", "hoeffding_test"),
    ("info_geometry", "loglr_kl_identity_check"),
    ("neyman_pearson", "midpoint_rule"),
    ("neyman_pearson", "np_test"),
    ("neyman_pearson", "solve_power"),
    ("neyman_pearson", "adjust_alpha"),
    ("montecarlo", "rate_estimate"),
    ("montecarlo", "mean_estimate"),
    ("cli", "main"),
    ("files", "read_distribution"),
    ("files", "read_symbols"),
)

MODULES = (
    "dist",
    "harness",
    "fisher",
    "evidential",
    "info_geometry",
    "neyman_pearson",
    "montecarlo",
    "cli",
    "files",
)


class _Buffer:
    """One thread's finished spans, as parallel int64 arrays."""

    def __init__(self):
        self.sid = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")

    def add(self, sid, name, start, end, parent, op):
        self.sid.append(sid)
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)


class Tracer:
    """Records spans and per-module error counts while installed."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._ids = itertools.count(1)  # 0 means "no parent"
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "buf"):
            st.buf = _Buffer()
            st.stack = []
            st.op = 0
            with self._buffers_lock:
                self._buffers.append(st.buf)
        return st

    def name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def set_op(self, op: int) -> None:
        """Tag the calling thread's next spans with operation id ``op``."""
        self._state().op = op

    def _call(self, name_id, module, fn, args, kwargs, parent=None, op=None):
        st = self._state()
        sid = next(self._ids)
        if parent is None:
            parent = st.stack[-1] if st.stack else 0
        if op is not None:
            st.op = op
        st.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # count each exception once, in the innermost layer it left
            if not getattr(exc, "_perfbench_counted", False):
                self.errors[module] += 1
                try:
                    exc._perfbench_counted = True
                except AttributeError:
                    pass
            raise
        finally:
            end = time.perf_counter_ns()
            st.stack.pop()
            st.buf.add(sid, name_id, start, end, parent, st.op)

    def wrap(self, name: str, fn, after=None):
        """A traced stand-in for ``fn``; ``after(args, result)`` sees each
        successful call."""
        name_id = self.name_id(name)
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name_id, module, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_for_each_rep(self, fn):
        loop_id = self.name_id("harness.for_each_rep")
        body_id = self.name_id("harness.rep_body")

        @functools.wraps(fn)
        def traced(reps, workers, body):
            st = self._state()
            loop_sid = next(self._ids)
            parent = st.stack[-1] if st.stack else 0
            op = st.op

            def traced_body(i):
                # pool threads start with an empty stack: parent is explicit
                return self._call(body_id, "harness", body, (i,), {}, loop_sid, op)

            st.stack.append(loop_sid)
            start = time.perf_counter_ns()
            try:
                return fn(reps, workers, traced_body)
            finally:
                end = time.perf_counter_ns()
                st.stack.pop()
                st.buf.add(loop_sid, loop_id, start, end, parent, op)

        return traced

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        import testlab
        import testlab.cli  # noqa: F401 - loads every module it rebinds
        from testlab import dist, harness

        loaded = [
            module
            for key, module in sys.modules.items()
            if key == "testlab" or key.startswith("testlab.")
        ]

        def rebind(original, replacement):
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, replacement)

        hooks = {
            "dist.finite_indices": self._count_draws,
            "evidential.update": self._count_exact_update,
        }
        for module_name, attr in ENTRY_POINTS:
            module = getattr(testlab, module_name)
            name = f"{module_name}.{attr.lstrip('_')}"
            original = getattr(module, attr)
            rebind(original, self.wrap(name, original, hooks.get(name)))

        original = harness._for_each_rep
        rebind(original, self._wrap_for_each_rep(original))

        seed_cls = dist.Seed
        original = seed_cls.__dict__["rng"]
        self._restore.append((seed_cls, "rng", original))
        seed_cls.rng = self.wrap("dist.seed_rng", original)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_draws(self, args, result):
        self.counters["dist.finite_indices.draws"] += int(args[1])

    def _count_exact_update(self, args, result):
        if result.exact_ratio is not None:
            self.counters["evidential.update.exact"] += 1

    # --- reduction -------------------------------------------------------

    def spans(self) -> dict:
        """Every recorded span as int64 numpy arrays keyed by field."""
        fields = ("sid", "name", "start", "end", "parent", "op")
        out = {}
        for f in fields:
            parts = [np.frombuffer(getattr(b, f), dtype=np.int64) for b in self._buffers]
            out[f] = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        return out

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the union of the intervals its
        child spans cover, so children running in parallel pool threads are
        not subtracted twice.
        """
        s = self.spans()
        n = len(s["sid"])
        result = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        if n == 0:
            return result
        dur = s["end"] - s["start"]
        t0 = int(s["start"].min())
        width = int(s["end"].max()) - t0 + 1
        order = np.lexsort((s["start"], s["parent"]))
        parent = s["parent"][order]
        group = np.concatenate(([0], np.cumsum(parent[1:] != parent[:-1])))
        # shift each parent's children into a disjoint time window, so one
        # running maximum yields "covered so far" within every group
        shift = group * width
        start = s["start"][order] - t0 + shift
        end = s["end"][order] - t0 + shift
        reach = np.maximum.accumulate(end)
        before = np.concatenate(([-1], reach[:-1]))
        covered = np.maximum(0, end - np.maximum(start, before))
        index_of = np.full(int(s["sid"].max()) + 1, -1, dtype=np.int64)
        index_of[s["sid"]] = np.arange(n)
        has_parent = parent > 0
        child_cover = np.bincount(
            index_of[parent[has_parent]], weights=covered[has_parent], minlength=n
        )
        self_ns = dur - child_cover
        names = s["name"]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_ns, minlength=k)
        for name, i in self.names.items():
            result[name] = {
                "calls": int(calls[i]),
                "incl_s": float(incl[i]) / 1e9,
                "self_s": float(own[i]) / 1e9,
            }
        return result


# Per-layer metrics of a traced run: (name, unit, better). Self times and
# counts come from the single-worker traced pass; the *_2w figures from
# the traced pass at 2 workers (Monte Carlo workloads only).
PER_LAYER = (
    ("dist.seed_rng.calls", "count", "lower"),
    ("dist.seed_rng.self_s", "s", "lower"),
    ("dist.finite_indices.calls", "count", "lower"),
    ("dist.finite_indices.draws", "count", "lower"),
    ("dist.finite_indices.self_s", "s", "lower"),
    ("dist.finite_indices.ns_per_draw", "ns", "lower"),
    ("dist.empirical.calls", "count", "lower"),
    ("dist.empirical.self_s", "s", "lower"),
    ("dist.gaussian_quantile.calls", "count", "lower"),
    ("dist.gaussian_quantile.self_s", "s", "lower"),
    ("harness.load_scenario.self_s", "s", "lower"),
    ("harness.run.calls", "count", "lower"),
    ("harness.run.self_s", "s", "lower"),
    ("harness.rep_body.calls", "count", "lower"),
    ("harness.rep_body.self_s", "s", "lower"),
    ("harness.for_each_rep.wall_s_2w", "s", "lower"),
    ("harness.rep_body.busy_s_2w", "s", "lower"),
    ("harness.parallel_efficiency_2w", "ratio", "higher"),
    ("fisher.binomial_tail.calls", "count", "lower"),
    ("fisher.binomial_tail.self_s", "s", "lower"),
    ("fisher.p_value.self_s", "s", "lower"),
    ("evidential.update.calls", "count", "lower"),
    ("evidential.update.self_s", "s", "lower"),
    ("evidential.update.exact_share", "ratio", "lower"),
    ("evidential.evidence_from_sample.calls", "count", "lower"),
    ("evidential.evidence_from_sample.calls_per_op", "ratio", "lower"),
    ("evidential.threshold_verdict.self_s", "s", "lower"),
    ("evidential.log_ratio_table.calls", "count", "lower"),
    ("info_geometry.kl.calls", "count", "lower"),
    ("info_geometry.kl.self_s", "s", "lower"),
    ("info_geometry.lr_threshold_as_kl_margin.self_s", "s", "lower"),
    ("info_geometry.map_decide.self_s", "s", "lower"),
    ("info_geometry.hoeffding_test.self_s", "s", "lower"),
    ("info_geometry.loglr_kl_identity_check.self_s", "s", "lower"),
    ("neyman_pearson.calls", "count", "lower"),
    ("neyman_pearson.self_s", "s", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("files.read_distribution.self_s", "s", "lower"),
    ("files.read_symbols.self_s", "s", "lower"),
) + tuple((f"{module}.errors", "count", "lower") for module in MODULES) + (
    ("trace.overhead", "ratio", "lower"),
)


def layer_metrics(tracers, evidence_samples: int) -> dict:
    """Per-layer figures (name -> value) from a workload's traced passes.

    ``evidence_samples`` counts the samples of the single-worker pass whose
    likelihood ratio some call needed; evidence_from_sample calls beyond
    one per such sample recompute what the caller already had.
    """
    main = tracers[0]
    spans = main.summary()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def module_total(module, field):
        return sum(v[field] for name, v in spans.items() if name.startswith(module + "."))

    draws = main.counters["dist.finite_indices.draws"]
    updates = calls("evidential.update")
    m = {}
    for name in ("dist.seed_rng", "dist.finite_indices", "dist.empirical",
                 "dist.gaussian_quantile", "harness.run", "harness.rep_body",
                 "fisher.binomial_tail", "evidential.update", "info_geometry.kl",
                 "cli.main"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["dist.finite_indices.draws"] = draws
    m["dist.finite_indices.ns_per_draw"] = (
        1e9 * self_s("dist.finite_indices") / draws if draws else 0.0)
    m["harness.load_scenario.self_s"] = self_s("harness.load_scenario")
    busy = wall = 0.0
    if len(tracers) > 1:
        parallel = tracers[1].summary()
        busy = parallel.get("harness.rep_body", {}).get("incl_s", 0.0)
        wall = parallel.get("harness.for_each_rep", {}).get("incl_s", 0.0)
    m["harness.for_each_rep.wall_s_2w"] = wall
    m["harness.rep_body.busy_s_2w"] = busy
    m["harness.parallel_efficiency_2w"] = busy / (2 * wall) if wall else 0.0
    m["fisher.p_value.self_s"] = self_s("fisher.p_value")
    m["evidential.update.exact_share"] = (
        main.counters["evidential.update.exact"] / updates if updates else 0.0)
    m["evidential.evidence_from_sample.calls"] = calls("evidential.evidence_from_sample")
    m["evidential.evidence_from_sample.calls_per_op"] = (
        calls("evidential.evidence_from_sample") / evidence_samples
        if evidence_samples else 0.0)
    m["evidential.threshold_verdict.self_s"] = self_s("evidential.threshold_verdict")
    m["evidential.log_ratio_table.calls"] = calls("evidential.log_ratio_table")
    for name in ("lr_threshold_as_kl_margin", "map_decide", "hoeffding_test",
                 "loglr_kl_identity_check"):
        m[f"info_geometry.{name}.self_s"] = self_s(f"info_geometry.{name}")
    m["neyman_pearson.calls"] = module_total("neyman_pearson", "calls")
    m["neyman_pearson.self_s"] = module_total("neyman_pearson", "self_s")
    m["montecarlo.self_s"] = module_total("montecarlo", "self_s")
    m["files.read_distribution.self_s"] = self_s("files.read_distribution")
    m["files.read_symbols.self_s"] = self_s("files.read_symbols")
    for module in MODULES:
        m[f"{module}.errors"] = sum(t.errors[module] for t in tracers)
    return m
