"""Span tracer for the repstat benchmark's traced run.

In the child interpreter, ``Tracer.install`` wraps every public function
of the six layer modules (``partitions``, ``symstats``, ``rsk``,
``qseries``, ``kirillov``, ``cli``) at every module that holds it by name,
so a call from ``cli`` into ``symstats.sweep`` or from ``rsk`` into
``symstats.dimension`` is seen as a span of the callee's layer.  A call
to a generator function records one span per resume.  A few inner
operations are counted without spans, because they run too often to
trace cheaply.

A span is (name id, start ns, end ns, parent span index); the spans of
one invocation are kept in one flat array and written when the CLI
returns.  The benchmark gives each invocation's trace file its own
invocation id.  ``aggregate`` turns spans into per-name calls, total and
self time, where self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("partitions", "symstats", "rsk", "qseries", "kirillov", "cli")


def _state_count(alg, p) -> int:
    return p**alg.dim


# Work counters added by a span, keyed by the traced name.
_SPAN_COUNTERS = {
    "kirillov.coadjoint_orbits": ("kirillov.states", _state_count),
    "kirillov.conjugacy_classes": ("kirillov.states", _state_count),
}


class Tracer:
    """Spans and counters of one CLI invocation, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.counters: dict[str, int] = {}
        self.spans = array("q")
        self._stack = [-1]

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter_ns, self.counters
        count_key, amount = _SPAN_COUNTERS.get(name, (None, None))

        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"
            counters[yielded] = 0

            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = len(spans)
                    spans.extend((nid, clock(), 0, stack[-1]))
                    stack.append(i >> 2)
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        spans[i + 2] = clock()
                        stack.pop()
                    counters[yielded] += 1
                    yield item

        else:
            if count_key:
                counters.setdefault(count_key, 0)

            def wrapper(*args, **kwargs):
                if count_key:
                    counters[count_key] += amount(*args, **kwargs)
                i = len(spans)
                spans.extend((nid, clock(), 0, stack[-1]))
                stack.append(i >> 2)
                try:
                    return fn(*args, **kwargs)
                finally:
                    spans[i + 2] = clock()
                    stack.pop()

        return functools.wraps(fn)(wrapper)

    def _count(self, fn, key: str):
        counters = self.counters
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        mods = {layer: importlib.import_module(f"repstat.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = self._span(obj, f"{layer}.{attr}")
        for mod in (importlib.import_module("repstat"), *mods.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        qseries = mods["qseries"]
        poly_mul = self._count(qseries.QPolynomial.__mul__, "qseries.poly_mul_calls")
        qseries.QPolynomial.__mul__ = qseries.QPolynomial.__rmul__ = poly_mul
        # Both series kernels count as one: the QPolynomial-coefficient
        # series of feit_fine and the integer series of gauss_identity_check.
        series_key = "qseries.series_mul_calls"
        qseries.TruncatedSeries.__mul__ = self._count(qseries.TruncatedSeries.__mul__, series_key)
        qseries._int_series_mul = self._count(qseries._int_series_mul, series_key)

    def dump(self, path: str) -> None:
        """Write the names and counters to ``path`` and the spans to ``path.spans``."""
        with open(path + ".spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters}, fh)


def load(path: str) -> tuple[list[str], dict[str, int], array]:
    """Read back what ``Tracer.dump`` wrote."""
    with open(path, encoding="utf-8") as fh:
        head = json.load(fh)
    spans = array("q")
    with open(path + ".spans", "rb") as fh:
        spans.frombytes(fh.read())
    return head["names"], head["counters"], spans


def aggregate(traces) -> dict[str, list[int]]:
    """Per span name, [calls, total ns, self ns] over the given traces.

    ``traces`` holds one (names, spans) pair per invocation; parent
    indices refer to spans of the same invocation.  Spans of one thread
    nest, so the time children cover is the sum of their durations.
    """
    out: dict[str, list[int]] = {}
    for names, spans in traces:
        nids, starts, ends, parents = spans[0::4], spans[1::4], spans[2::4], spans[3::4]
        durations = [e - s for s, e in zip(starts, ends)]
        covered = [0] * len(durations)
        for parent, d in zip(parents, durations):
            if parent >= 0:
                covered[parent] += d
        per_name = [[0, 0, 0] for _ in names]
        for nid, d, c in zip(nids, durations, covered):
            acc = per_name[nid]
            acc[0] += 1
            acc[1] += d
            acc[2] += d - c
        for name, (calls, total, own) in zip(names, per_name):
            if calls:
                acc = out.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
    return out


def layer_self_ns(agg: dict[str, list[int]]) -> dict[str, int]:
    """Self time per layer, summed over the layer's span names."""
    out = dict.fromkeys(LAYERS, 0)
    for name, (_, _, own) in agg.items():
        out[name.split(".", 1)[0]] += own
    return out
