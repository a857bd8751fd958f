"""Spans and counters around the public functions of each gl2ext layer.

The tracer wraps functions where callers look them up (module attributes,
including names imported into other gl2ext modules), so nothing inside
``src/`` changes.  Spans (name, start, end, parent) are kept in arrays in
memory and written out at the end; a span's self time is its duration
minus the time its child spans cover.  The products that run hundreds of
thousands of times get counters only.

The tracer's own bookkeeping for a child span (``open`` before the child's
start timestamp, ``close`` after its end) and a counted call's wrapper run
inside the parent span.  Their cost per call is measured once, on empty
calls, when the tracer is made, and subtracted from each parent's self
time.  Counter hooks run inside their own span, so their cost stays in
that span's self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

SPANNED = {
    "tower": ("enumerate_weight_zero", "ext_dim_table", "tensor_mult"),
    "series": ("lambda_series", "apply_operator"),
    "oracle": ("quotient_basis", "ext_dims", "reduce_row"),
}
COUNTED = {"lambda_basis": ("lambda_mult",), "paths": ("pi_mult",)}
PACKAGE = "gl2ext"
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 9


class Tracer:
    def __init__(self):
        self.span_cost_ns = self.count_cost_ns = 0.0
        self._reset()
        self.span_cost_ns, self.count_cost_ns = self._calibrate()
        self._reset()
        self._restore: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.names: list[str] = []
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("q")
        self.ends = array("q")
        # [span index, ns covered by children, child spans, counted calls]
        self.stack: list[list[int]] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self.origin = time.perf_counter_ns()

    def _calibrate(self) -> tuple[float, float]:
        """Median cost, in ns, that one empty child span and one counted call add to the enclosing span."""

        def noop():
            return None

        def loop_ns(fn) -> int:
            start = time.perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                fn()
            return time.perf_counter_ns() - start

        def parent_self_ns(fn) -> int:
            before = self.self_ns["trace.calibration"]
            self.open("trace.calibration")
            for _ in range(CALIBRATION_CALLS):
                fn()
            self.close()
            return self.self_ns["trace.calibration"] - before

        spanned = self._spanned("trace.calibration.child", noop)
        counted = self._counted("trace.calibration.counted", noop)
        span, count = [], []
        for _ in range(CALIBRATION_REPEATS):
            bare = loop_ns(noop)
            span.append((parent_self_ns(spanned) - bare) / CALIBRATION_CALLS)
            count.append((parent_self_ns(counted) - bare) / CALIBRATION_CALLS)
        return statistics.median(span), statistics.median(count)

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self.names.append(name)
        self.parents.append(self.stack[-1][0] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.stack.append([len(self.starts), 0, 0, 0])
        self.starts.append(time.perf_counter_ns())

    def close(self, rename: str | None = None) -> None:
        end = time.perf_counter_ns()
        idx, covered, children, counted = self.stack.pop()
        self.ends[idx] = end
        if rename is not None:
            self.names[idx] = rename
        name = self.names[idx]
        duration = end - self.starts[idx]
        self.self_ns[name] += duration - covered - children * self.span_cost_ns - counted * self.count_cost_ns
        self.total_ns[name] += duration
        if self.stack:
            parent = self.stack[-1]
            parent[1] += duration
            parent[2] += 1

    def call(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def write(self, path) -> None:
        """One line per span: id, parent, operation index, name, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                    f"{self.starts[i] - self.origin}\t{self.ends[i] - self.origin}\n"
                )

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tracer.close()

        return traced

    def _counted(self, name: str, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if stack:
                stack[-1][3] += 1
            return fn(*args, **kwargs)

        return counted

    def _check(self, fn):
        """A verify check: its span is named after the Check it returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(f"verify.{fn.__name__}")
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(f"verify.{result.name}" if result is not None else None)

        return traced

    def _after(self, name: str):
        counts = self.counts
        if name == "tower.tensor_mult":
            def after(args, result):
                counts["tower.tensor_mult.calls"] += 1
                counts["tower.tensor_mult.nonzero"] += result is not None
        elif name == "oracle.reduce_row":
            def after(args, result):
                counts["oracle.reduce_row.calls"] += 1
                counts["oracle.reduce_row.pivots"] += result is not None
        elif name == "tower.enumerate_weight_zero":
            def after(args, result):
                counts["tower.enumerate_weight_zero.tuples"] += len(result)
        elif name == "series.apply_operator":
            def after(args, result):
                """Count the (gamma entry, delta entry) pairs and those with equal j."""
                gamma, delta = args[:2]
                if delta.dims is not None:
                    gj = Counter(j for (_, j, _) in gamma.dims)
                    dj = Counter(j for (j, _) in delta.dims)
                    counts["series.apply_operator.pairs"] += len(gamma.dims) * len(delta.dims)
                    counts["series.apply_operator.matches"] += sum(c * dj[j] for j, c in gj.items())
        else:
            after = None
        return after

    def install(self) -> None:
        """Replace each target in every imported gl2ext module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        mod = lambda short: sys.modules[f"{PACKAGE}.{short}"]  # noqa: E731
        swaps = {}
        for short, names in SPANNED.items():
            for name in names:
                fn = getattr(mod(short), name)
                swaps[id(fn)] = (fn, self._spanned(f"{short}.{name}", fn, self._after(f"{short}.{name}")))
        for short, names in COUNTED.items():
            for name in names:
                fn = getattr(mod(short), name)
                swaps[id(fn)] = (fn, self._counted(f"{short}.{name}", fn))
        verify = mod("verify")
        for name in dir(verify):
            fn = getattr(verify, name)
            if name.startswith("check_") and callable(fn):
                swaps[id(fn)] = (fn, self._check(fn))
        base = mod("oracle").GradedQuotient
        tracer = self

        class GradedQuotient(base):
            def __init__(self, *args, **kwargs):
                tracer.call("oracle.GradedQuotient", super().__init__, *args, **kwargs)

        swaps[id(base)] = (base, GradedQuotient)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, swaps[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        s = lambda name: self.self_ns[name] / 1e9  # noqa: E731
        c = self.counts
        ratio = lambda num, den: c[num] / c[den] if c[den] else 0.0  # noqa: E731
        out = {
            "cli.main.self_s": s("cli.main"),
            "tower.enumerate_weight_zero.self_s": s("tower.enumerate_weight_zero"),
            "tower.enumerate_weight_zero.tuples": c["tower.enumerate_weight_zero.tuples"],
            "tower.ext_dim_table.self_s": s("tower.ext_dim_table"),
            "series.lambda_series.self_s": s("series.lambda_series"),
            "series.apply_operator.self_s": s("series.apply_operator"),
            "series.apply_operator.pairs_visited": c["series.apply_operator.pairs"],
            "series.apply_operator.match_ratio": ratio(
                "series.apply_operator.matches", "series.apply_operator.pairs"
            ),
            "oracle.quotient_basis.self_s": s("oracle.quotient_basis"),
            "oracle.GradedQuotient.self_s": s("oracle.GradedQuotient"),
            "oracle.ext_dims.self_s": s("oracle.ext_dims"),
            "oracle.reduce_row.calls": c["oracle.reduce_row.calls"],
            "oracle.reduce_row.self_s": s("oracle.reduce_row"),
            "oracle.reduce_row.pivot_ratio": ratio("oracle.reduce_row.pivots", "oracle.reduce_row.calls"),
            "tower.tensor_mult.calls": c["tower.tensor_mult.calls"],
            "tower.tensor_mult.self_s": s("tower.tensor_mult"),
            "tower.tensor_mult.nonzero_ratio": ratio("tower.tensor_mult.nonzero", "tower.tensor_mult.calls"),
            "lambda_basis.lambda_mult.calls": c["lambda_basis.lambda_mult"],
            "paths.pi_mult.calls": c["paths.pi_mult"],
        }
        check_totals = defaultdict(float)
        for name, ns in self.total_ns.items():
            if name.startswith("verify."):
                check_totals[f"{name}.total_s"] += ns / 1e9
        out.update(check_totals)
        return out
