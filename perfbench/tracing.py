"""Spans and call counters recorded from outside the cantorspec modules.

The tracer replaces public functions of ``src/cantorspec/`` with wrappers, in
the defining module and again in every module that imported the name (a
``from .x import f`` binding is a separate reference).  Each wrapper records
a span: name, start, end, parent span and pass id, kept in memory until the
benchmark writes them out.  Functions called more than about 1e5 times per
pass get a bare call counter instead, installed only in a separate counting
pass, so that their wrapper cost does not distort the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _words(args, kwargs, level):
    return {"words": len(level.elements) + sum(c - 1 for _, c in level.collisions)}


def _completeness_terms(args, kwargs, report):
    from cantorspec.spectra import word_count
    grid_size = len(report.rows) // report.l_max
    return {"terms": grid_size * word_count(args[0].pair, report.l_max)}


# (span name, attribute, modules holding the name, counters of one call)
SPANNED = (
    ("fourier.eval_H_array", "eval_H_array", ("fourier", "verify"),
     lambda a, k, r: {"args": r.size}),
    ("fourier.mu_hat_array", "mu_hat_array", ("fourier", "verify"),
     lambda a, k, r: {"levels": r[2]}),
    ("spectra.enumerate_level", "enumerate_level", ("spectra", "verify", "dimension", "cli"),
     _words),
    ("verify.completeness_Q", "completeness_Q", ("verify", "cli"), _completeness_terms),
    ("verify.partition_identity", "partition_identity", ("verify", "cli"),
     lambda a, k, r: {"terms": r.terms}),
    ("verify.orthogonality_check", "orthogonality_check", ("verify", "cli"),
     lambda a, k, r: {"pairs": r.pair_count}),
    ("dimension.hausdorff_dim_formula", "hausdorff_dim_formula", ("dimension",), None),
    ("dimension.box_counting_dim", "box_counting_dim", ("dimension",), None),
    ("dimension.build_intervals", "build_intervals", ("dimension",), None),
    ("dimension.beurling_vs_hausdorff", "beurling_vs_hausdorff", ("dimension",), None),
    ("dimension.rescale_constant", "rescale_constant", ("dimension", "sampling"), None),
    ("sampling.sample_measure", "sample_measure", ("sampling",),
     lambda a, k, r: {"samples": len(r.values)}),
    ("svgplot.line_chart", "line_chart", ("svgplot",), None),
    ("svgplot.scatter", "scatter", ("svgplot",), None),
    ("svgplot.histogram", "histogram", ("svgplot",), None),
    ("cli.write_csv", "_write_csv", ("cli",), lambda a, k, r: {"rows": len(a[3])}),
    ("cli.write_json", "_write_json", ("cli",), None),
)

# (counter name, attribute, modules holding the name); ScalePair methods are
# patched on the class
COUNTED = (
    ("fourier.eval_H", "eval_H", ("fourier", "verify")),
    ("fourier.mu_hat", "mu_hat", ("fourier", "verify", "cli")),
)
COUNTED_METHODS = (("core.ScalePair.b", "b"), ("core.ScalePair.d", "d"))
COUNTED_NAMES = tuple(c[0] for c in COUNTED_METHODS + COUNTED)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, pass id]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.pass_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, measure=None):
        """``fn`` wrapped so that each call records a span and its counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.pass_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if measure is not None:
                counts = self.counts[self.pass_id]
                for key, value in measure(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.pass_id][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install_spans(self):
        for name, attr, modules, measure in SPANNED:
            for module in modules:
                owner = sys.modules[f"cantorspec.{module}"]
                self._patch(owner, attr, self.span(name, getattr(owner, attr), measure))

    def install_counters(self):
        for name, attr, modules in COUNTED:
            for module in modules:
                owner = sys.modules[f"cantorspec.{module}"]
                self._patch(owner, attr, self._counter(name, getattr(owner, attr)))
        pair_cls = sys.modules["cantorspec.core"].ScalePair
        for name, attr in COUNTED_METHODS:
            self._patch(pair_cls, attr, self._counter(name, getattr(pair_cls, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def pass_summary(self, pass_id: int) -> tuple[dict[str, int], dict[str, float]]:
        """Call counts and self times (span duration minus time covered by its
        children) per span name, for one pass."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                calls[name] += 1
                self_s[name] += end - start - child_time[index]
        return calls, self_s

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": pid}
                for n, s, e, p, pid in self.spans]
