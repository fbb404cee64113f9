"""In-process tracing of the msw library's public functions.

The tracer wraps module-level functions (and the two objectives'
value_and_grad methods) at run time, wherever a module of the package holds a
reference to them, so calls through imported names (msw.maxsliced.w1d_empirical,
msw.cli.run_rate_experiment, ...) are timed too. Nothing under src/msw changes.
Spans are kept in memory; a layer's self time is its span minus its child
spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" attributes wrap a method
TARGETS = (
    ("msw.measures", "sample", "measures.sample"),
    ("msw.rkhs", "feature_coords", "rkhs.feature_coords"),
    ("msw.ot1d", "w1d_empirical", "ot1d.w1d_empirical"),
    ("msw.ot1d", "w1d_vs_cdf", "ot1d.w1d_vs_cdf"),
    ("msw.maxsliced", "msw_empirical", "maxsliced.search"),
    ("msw.maxsliced", "msw_vs_analytic", "maxsliced.search"),
    ("msw.maxsliced", "_TwoSampleObjective.value_and_grad", "maxsliced.value_and_grad"),
    ("msw.maxsliced", "_AnalyticObjective.value_and_grad", "maxsliced.value_and_grad"),
    ("msw.ratio", "ratio_sup", "ratio.ratio_sup"),
    ("msw.ratio", "ratio_fixed_direction", "ratio.ratio_fixed_direction"),
    ("msw.harness", "run_rate_experiment", "harness.run"),
    ("msw.harness", "run_ratio_experiment", "harness.run"),
    # the trials are spans of their own so that harness.run's self time
    # excludes them; they are not reported
    ("msw.harness", "_rate_trial", "harness.trial"),
    ("msw.harness", "_ratio_trial", "harness.trial"),
    ("msw.harness", "emit", "harness.emit"),
    ("msw.cli", "main", "cli.main"),
    ("msw.cli", "load_sample_file", "cli.load_sample_file"),
)


class Tracer:
    """Records one span per wrapped call: (name, parent index, start, end, child time)."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.rows = 0          # direction rows passed to value_and_grad
        # (function, args, kwargs, result) of every search and ratio_sup call
        self.results: list[tuple] = []
        self._stack: list[list] = []  # open spans: [index, child time]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)  # placeholder keeps indices in call order
            frame = [index, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans[index] = (name, parent, start, end, frame[1])
            if name == "maxsliced.value_and_grad":
                tracer.rows += args[1].shape[0]
            elif name in ("maxsliced.search", "ratio.ratio_sup"):
                tracer.results.append((fn, args, kwargs, out))
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "msw":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, _, start, end, child in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start - child) * 1e-9
        return out

    def span_rows(self):
        """The spans as CSV rows: index, parent, name, start_ns, end_ns, self_ns."""
        for index, (name, parent, start, end, child) in enumerate(self.spans):
            yield f"{index},{parent},{name},{start},{end},{end - start - child}"
