"""Layer spans and counters recorded from outside the program.

The tracer swaps a wrapper into every ``mnl_bandit.*`` module namespace that
binds a traced function, and onto ``History.append`` and
``AssortmentContexts.from_pool``.  Callers look functions up in their
module's globals at call time, so calls inside a module (``fit_mle``
calling ``score``) are caught too, and no file of the program changes.

A span records its name, start, end, parent span and run id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.  The choice-model functions are too hot for
spans and are only counted.
"""
from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layer = the module that defines the function; a dotted name is a method.
SPANS = (
    ("estimation", "fit_mle"),
    ("estimation", "penalized_log_likelihood"),
    ("estimation", "History.append"),
    ("confidence", "build_confidence_state"),
    ("confidence", "e_boundary_multi"),
    ("confidence", "in_set_E"),
    ("confidence", "in_set_C"),
    ("confidence", "max_revenue_over_E"),
    ("policy", "cb_mnl_step"),
    ("policy", "oracle_assortment"),
    ("policy", "random_assortment"),
    ("simulator", "make_instance"),
    ("simulator", "estimate_kappa"),
    ("simulator", "serve_contexts"),
    ("simulator", "environment_step"),
    ("harness", "run_many"),
    ("harness", "run_experiment"),
    ("harness", "elliptical_potential_check"),
    ("harness", "summarize_runs"),
    ("harness", "save_runs"),
)
COUNTS = (
    ("estimation", "score"),
    ("estimation", "g_vector"),
    ("estimation", "matrix_H"),
    ("policy", "enumerate_assortments"),
    ("choice", "expected_revenue"),
    ("choice", "choice_probabilities"),
    ("choice", "AssortmentContexts.from_pool"),
)
LAYERS = ("estimation", "confidence", "policy", "simulator", "harness")
# Every likelihood-family pass scans the whole flat history.
_LIKELIHOOD = {
    "estimation.penalized_log_likelihood",
    "estimation.score",
    "estimation.g_vector",
    "estimation.matrix_H",
}
_POLICY_STEPS = {"policy.cb_mnl_step", "policy.random_assortment"}

# Per-layer metrics in report order: (name, unit).
PER_LAYER = (
    ("estimation.fit_mle.calls", "count"),
    ("estimation.fit_mle.s", "s"),
    ("estimation.fit_mle.score_calls_per_fit", "ratio"),
    ("estimation.penalized_log_likelihood.calls", "count"),
    ("estimation.penalized_log_likelihood.s", "s"),
    ("estimation.score.calls", "count"),
    ("estimation.g_vector.calls", "count"),
    ("estimation.matrix_H.calls", "count"),
    ("estimation.rows_per_pass", "rows"),
    ("estimation.History.append.s", "s"),
    ("confidence.build_confidence_state.s", "s"),
    ("confidence.build_confidence_state.self_s", "s"),
    ("confidence.e_boundary_multi.calls", "count"),
    ("confidence.e_boundary_multi.s", "s"),
    ("confidence.e_boundary_multi.dirs", "count"),
    ("confidence.in_set_E.calls", "count"),
    ("confidence.in_set_E.s", "s"),
    ("confidence.in_set_E.reject_frac", "frac"),
    ("confidence.in_set_C.calls", "count"),
    ("confidence.in_set_C.s", "s"),
    ("confidence.max_revenue_over_E.calls", "count"),
    ("confidence.max_revenue_over_E.s", "s"),
    ("policy.cb_mnl_step.s", "s"),
    ("policy.cb_mnl_step.self_s", "s"),
    ("policy.enumerate_assortments.calls", "count"),
    ("policy.assortments_per_round", "count"),
    ("policy.oracle_assortment.calls", "count"),
    ("policy.oracle_assortment.s", "s"),
    ("policy.random_assortment.s", "s"),
    ("choice.expected_revenue.calls", "count"),
    ("choice.choice_probabilities.calls", "count"),
    ("choice.AssortmentContexts.from_pool.calls", "count"),
    ("simulator.make_instance.s", "s"),
    ("simulator.estimate_kappa.s", "s"),
    ("simulator.serve_contexts.s", "s"),
    ("simulator.environment_step.s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.elliptical_potential_check.s", "s"),
    ("harness.save_runs.s", "s"),
    ("harness.io_bytes", "B"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.unaccounted_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

ROOT = "cli.main"


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


class Tracer:
    """Installs wrappers, records spans and counters, restores on uninstall."""

    def __init__(self, run_id: int):
        self.run_id = int(run_id)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.rows = 0
        self.passes = 0
        self.score_in_fit = 0
        self.in_e_rejects = 0
        self.policy_assortments = 0
        self.dirs = 0
        self.io_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so that each call records one span."""
        nid = self._id(name)
        stack, names, parent, start, end = self.stack, self.span_name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, fn, hook=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- ratio counters, from arguments and return values -----------------
    def _open(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(self.span_name[i] == nid for i in self.stack)

    def _hook(self, name: str):
        if name in _LIKELIHOOD:
            is_score = name == "estimation.score"

            def on_pass(args, kwargs, result):
                self.rows += _arg(args, kwargs, 0, "history").n_items
                self.passes += 1
                if is_score and self._open("estimation.fit_mle"):
                    self.score_in_fit += 1

            return on_pass
        if name == "confidence.in_set_E":

            def on_member(args, kwargs, result):
                self.in_e_rejects += not result

            return on_member
        if name == "confidence.e_boundary_multi":

            def on_boundary(args, kwargs, result):
                self.dirs += np.atleast_2d(_arg(args, kwargs, 3, "directions")).shape[0]

            return on_boundary
        if name == "policy.enumerate_assortments":

            def on_enumerate(args, kwargs, result):
                if self.stack and self.names[self.span_name[self.stack[-1]]] in _POLICY_STEPS:
                    self.policy_assortments += len(result)

            return on_enumerate
        if name == "harness.save_runs":

            def on_save(args, kwargs, result):
                for csv_path in result:
                    meta = os.path.splitext(csv_path)[0] + ".json"
                    self.io_bytes += os.path.getsize(csv_path) + os.path.getsize(meta)

            return on_save
        return None

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for targets, make in ((SPANS, self.span), (COUNTS, self._count)):
            for module, attr in targets:
                name = f"{module}.{attr}"
                self._wrap(module, attr, lambda fn, name=name: make(name, fn, self._hook(name)))

    def _wrap(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"mnl_bandit.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, meth, new)
            self._patches.append((cls, meth, raw))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "mnl_bandit" and not mod_name.startswith("mnl_bandit."):
                continue
            for key, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, key, wrapper)
                    self._patches.append((other, key, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- results ----------------------------------------------------------
    def _arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32).astype(np.intp),
            np.frombuffer(self.parent, dtype=np.int32).astype(np.intp),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def _per_name(self, clock):
        """Calls, inclusive seconds and self seconds, indexed by name id.

        ``clock`` maps wall times to the seconds reported (see pace.py).
        """
        name, parent, start, end = self._arrays()
        dur = clock(end) - clock(start)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        return (
            np.bincount(name, minlength=k),
            np.bincount(name, weights=dur, minlength=k),
            np.bincount(name, weights=self_t, minlength=k),
        )

    def metrics(self, rounds: int, clock) -> dict[str, float]:
        """Per-span calls, inclusive and self seconds, counters and ratios."""
        calls, incl, excl = self._per_name(clock)
        out: dict[str, float] = {}
        for module, attr in SPANS:
            full = f"{module}.{attr}"
            i = self._ids[full]
            out[f"{full}.calls"] = int(calls[i])
            out[f"{full}.s"] = float(incl[i])
            out[f"{full}.self_s"] = float(excl[i])
        for module, attr in COUNTS:
            out[f"{module}.{attr}.calls"] = self.counts[f"{module}.{attr}"]
        fits = out["estimation.fit_mle.calls"]
        out["estimation.fit_mle.score_calls_per_fit"] = self.score_in_fit / fits if fits else 0.0
        out["estimation.rows_per_pass"] = self.rows / self.passes if self.passes else 0.0
        members = out["confidence.in_set_E.calls"]
        out["confidence.in_set_E.reject_frac"] = self.in_e_rejects / members if members else 0.0
        out["confidence.e_boundary_multi.dirs"] = self.dirs
        out["policy.assortments_per_round"] = self.policy_assortments / rounds if rounds else 0.0
        out["harness.io_bytes"] = self.io_bytes
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = float(
                sum(excl[i] for n, i in self._ids.items() if n.split(".")[0] == layer)
            )
        root = self._ids.get(ROOT)
        run_s = float(incl[root]) if root is not None else 0.0
        accounted = sum(out[f"layer.{layer}.self_s"] for layer in LAYERS)
        out["trace.run_s"] = run_s
        out["trace.unaccounted_frac"] = 1.0 - accounted / run_s if run_s else 0.0
        return out

    def largest(self, clock) -> tuple[str, float]:
        """Traced function with the largest self time, orchestration excluded."""
        excl = self._per_name(clock)[2]
        ranked = [
            (float(excl[i]), n) for n, i in self._ids.items()
            if n != ROOT and not n.startswith("harness.")
        ]
        best = max(ranked)
        return best[1], best[0]

    def save(self, path: str, pace) -> None:
        """Write every span (name table, name id, wall start and end, parent,
        run id) and the pace probes that rescale wall time."""
        name, parent, start, end = self._arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name.astype(np.int32),
            start=start - t0,
            end=end - t0,
            parent=parent.astype(np.int32),
            run_id=np.full(name.size, self.run_id, dtype=np.int64),
            probe_start=np.asarray(pace.starts) - t0,
            probe_end=np.asarray(pace.ends) - t0,
            probe_pace=np.asarray(pace.paces),
        )
