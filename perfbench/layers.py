"""Per-layer tracing from outside the library.

``LayerTrace.installed()`` wraps the public functions at each layer
boundary of ``fracsum`` for the duration of a ``with`` block and puts the
originals back afterwards.  Each wrapper is a span: it records the
span's self time (its duration minus the time of the spans it encloses)
and its call count, aggregated in memory per span name.  Observers that
read a span's result run outside every span's self time.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from fracsum import bench_cli, sampling, series_model, transform, w_algorithm

# (owner, attribute, span name).  Functions are replaced wherever a fracsum
# module binds them, because modules import each other's names directly.
_SPANS = (
    (sampling.Schedule, "prefix", "sampling.prefix"),
    (series_model, "sums_and_terms", "series_model.sums_and_terms"),
    (w_algorithm, "build_table", "w_algorithm.build_table"),
    (transform, "accelerate", "transform.accelerate"),
    (transform, "estimate_errors", "transform.estimate_errors"),
    (bench_cli, "run", "bench_cli.run"),
    (bench_cli, "reproduce_all", "bench_cli.reproduce_all"),
    (bench_cli.RunReport, "render", "bench_cli.render"),
    (bench_cli.ReproduceReport, "text", "bench_cli.render"),
)


def cells(obj) -> int:
    """Slots of the lists and tuples reachable from *obj*'s attributes."""

    def walk(x):
        if isinstance(x, (list, tuple)):
            # the table's lists are homogeneous: all rows or all scalars
            if x and isinstance(x[0], (list, tuple)):
                return sum(walk(y) for y in x)
            return len(x)
        # an array-backed table counts its elements
        return int(x.size) if hasattr(x, "shape") and hasattr(x, "size") else 0

    attrs = getattr(obj, "__dict__", {})
    return sum(walk(v) for v in attrs.values())


class LayerTrace:
    """Self time and calls per span, plus counts read from span results."""

    def __init__(self):
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.entries = 0  # table entries A(j, n) computed
        self.cells_max = 0  # largest list-cell count of a returned table
        self.terms_used = 0  # sum of R_n at the selected entries
        self.entries_used = 0  # entries needed to reach the selected A(0, n)
        self._open = []  # time covered by child spans, one slot per open span

    def span(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = perf_counter()
            done = None
            try:
                return_value = fn(*args, **kwargs)
                done = perf_counter()
                if observe is not None:
                    observe(return_value)
                return return_value
            finally:
                end = perf_counter()
                elapsed = (done or end) - start
                self.self_s[name] += elapsed - self._open.pop()
                self.total_s[name] += elapsed
                self.calls[name] += 1
                if self._open:  # the observer's time is covered, but by no layer
                    self._open[-1] += end - start

        return traced

    def _table(self, table):
        self.entries += (table.depth + 1) * (table.depth + 2) // 2
        self.cells_max = max(self.cells_max, cells(table))

    def _selected(self, result):
        n = result.best[1]
        self.terms_used += result.table.R[n]
        self.entries_used += (n + 1) * (n + 2) // 2

    def _sums_and_terms(self, original):
        def sums_and_terms(problem, upto, ctx):
            timed = dataclasses.replace(problem, term=self.span("series_model.term", problem.term))
            return original(timed, upto, ctx)

        return sums_and_terms

    @contextmanager
    def installed(self):
        """Wrap every layer boundary; restore the originals on exit."""
        observers = {"w_algorithm.build_table": self._table,
                     "transform.accelerate": self._selected}
        modules = [m for k, m in list(sys.modules.items())
                   if k == "fracsum" or k.startswith("fracsum.")]
        patched = []
        try:
            for owner, attr, name in _SPANS:
                original = getattr(owner, attr)
                inner = self._sums_and_terms(original) if attr == "sums_and_terms" else original
                wrapper = self.span(name, inner, observers.get(name))
                if isinstance(owner, type):
                    bindings = [(owner, attr)]
                else:
                    bindings = [(m, k) for m in modules for k, v in vars(m).items()
                                if v is original]
                for target, key in bindings:
                    patched.append((target, key, original))
                    setattr(target, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(patched):
                setattr(target, key, original)
