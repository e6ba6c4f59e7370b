"""In-memory spans around the module attributes through which poolreg's layers call.

Only the traced run installs these hooks; the timed run never imports this
module.  A span records its name, start, end and parent; spans live in memory
until the run ends.  A layer's self time is the duration of its spans minus
the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_groups(c, fn, args, kwargs, res):
    c["pooling.groups"] += res.n_groups


def _count_cv(c, fn, args, kwargs, res):
    c["smoothing.cv_candidates"] += 1


def _count_grid_1d(c, fn, args, kwargs, res):
    u = _arg(fn, args, kwargs, "u")
    x = _arg(fn, args, kwargs, "x_eval")
    c["smoothing.grid_fit.kernel_evals"] += len(u) * len(x)


def _count_grid_multi(c, fn, args, kwargs, res):
    centers = _arg(fn, args, kwargs, "centers")
    x = _arg(fn, args, kwargs, "x_eval")
    c["smoothing.grid_fit_multi.kernel_evals"] += len(centers) * len(x)


def _count_estimate(c, fn, args, kwargs, res):
    c["estimators.failed_points"] += int((res.failures != 0).sum())
    c["estimators.clamped_points"] += int((res.clamp_flags != 0).sum())


def _count_table(c, fn, args, kwargs, res):
    rows = res[0] if isinstance(res, tuple) else res
    c["simulation.replicates_dropped"] += sum(r.cell.n_failed_reps for r in rows)


def _count_ingest_individual(c, fn, args, kwargs, res):
    c["io.rows_parsed"] += res.n
    c["io.bytes_read"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _count_ingest_pooled(c, fn, args, kwargs, res):
    c["io.rows_parsed"] += int(res.sizes().sum())
    c["io.bytes_read"] += os.path.getsize(_arg(fn, args, kwargs, "path"))


def _count_written(c, fn, args, kwargs, res):
    paths = res if isinstance(res, list) else [res]
    c["io.bytes_written"] += sum(os.path.getsize(p) for p in paths)


# (module, attribute, span name, counter).  Each entry is a call site between
# two layers: the attribute is looked up at call time by the calling module.
HOOKS = [
    ("poolreg.io", "ingest_individual_csv", "io.ingest_individual_csv",
     _count_ingest_individual),
    ("poolreg.io", "ingest_pooled_csv", "io.ingest_pooled_csv", _count_ingest_pooled),
    ("poolreg.io", "emit_results", "io.emit_results", _count_written),
    ("poolreg.io", "write_traces_csv", "io.emit_results", _count_written),
    ("poolreg.cli", "run_table", "simulation.run_table", _count_table),
    ("poolreg.simulation", "sample_replicate", "simulation.sample_replicate", None),
    ("poolreg.simulation", "ise", "simulation.ise", None),
]
for _mod in ("poolreg.cli", "poolreg.simulation"):
    HOOKS += [
        (_mod, "pool_homogeneous", "pooling.pool_homogeneous", _count_groups),
        (_mod, "pool_random", "pooling.pool_random", _count_groups),
        (_mod, "pool_binned", "pooling.pool_binned", _count_groups),
    ] + [
        (_mod, name, "estimators.estimate", _count_estimate)
        for name in ("estimate_dh", "estimate_dm", "estimate_ll", "estimate_dh_binned")
    ]
HOOKS += [
    ("poolreg.smoothing", "select_bandwidth", "smoothing.select_bandwidth", None),
    ("poolreg.smoothing", "loo_cv_score", "smoothing.select_bandwidth", _count_cv),
    ("poolreg.smoothing", "_plugin_bandwidth", "smoothing.plugin", None),
    ("poolreg.smoothing", "local_poly_derivatives", "smoothing.derivatives", None),
    ("poolreg.estimators", "local_poly_derivatives", "smoothing.derivatives", None),
    ("poolreg.estimators", "grid_fit_with_widening", "smoothing.grid_fit", None),
    ("poolreg.smoothing", "_grid_fit_1d", "smoothing.grid_fit", _count_grid_1d),
    ("poolreg.estimators", "_grid_fit_1d", "smoothing.grid_fit", _count_grid_1d),
    ("poolreg.smoothing", "grid_fit_local_linear_multi", "smoothing.grid_fit_multi",
     _count_grid_multi),
    ("poolreg.estimators", "grid_fit_local_linear_multi", "smoothing.grid_fit_multi",
     _count_grid_multi),
    ("poolreg.estimators", "select_bandwidth_multi",
     "smoothing.select_bandwidth_multi", None),
]

SELF_TIMES = [
    "pooling.pool_homogeneous", "pooling.pool_random", "pooling.pool_binned",
    "smoothing.select_bandwidth", "smoothing.plugin", "smoothing.derivatives",
    "smoothing.grid_fit", "smoothing.grid_fit_multi",
    "smoothing.select_bandwidth_multi", "estimators.estimate",
    "simulation.sample_replicate", "simulation.ise", "simulation.run_table",
    "io.ingest_individual_csv", "io.ingest_pooled_csv", "io.emit_results",
    "cli.main",
]
# Bandwidth searches also reported with their grid fits included
INCLUSIVE = ["smoothing.select_bandwidth", "smoothing.select_bandwidth_multi"]
COUNTS = [
    "pooling.groups", "smoothing.cv_candidates", "smoothing.grid_fit.kernel_evals",
    "smoothing.grid_fit_multi.kernel_evals", "estimators.failed_points",
    "estimators.clamped_points", "simulation.replicates_dropped", "io.rows_parsed",
    "io.bytes_read", "io.bytes_written",
]


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.missing = 0
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        for mod_name, attr, name, counter in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing += 1
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            res = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                # a span of its own, so counting is not billed to the caller
                self.call("trace.count", counter, self.counts, fn, args, kwargs, res)
            return res

        return wrapper

    def self_times(self) -> dict:
        out = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def inclusive_times(self) -> dict:
        """Durations of the spans of each name that no span of that name encloses."""
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                out[name] += end - start
        return out

    def metrics(self) -> dict:
        """Every per-layer metric by name: self times in s, counts exact."""
        st = self.self_times()
        out = {f"{n}.s": {"value": st.get(n, 0.0), "unit": "s"} for n in SELF_TIMES}
        inc = self.inclusive_times()
        for n in INCLUSIVE:
            out[f"{n}.inclusive_s"] = {"value": inc.get(n, 0.0), "unit": "s"}
        for n in COUNTS:
            unit = "computed_count" if n.endswith("kernel_evals") else "count"
            if n.startswith("io.bytes"):
                unit = "bytes"
            out[n] = {"value": self.counts.get(n, 0), "unit": unit}
        out["trace.spans"] = {"value": len(self.spans), "unit": "count"}
        out["trace.hooks_missing"] = {"value": self.missing, "unit": "count"}
        return out
