"""Benchmark-side spans around the calls each op makes into diagdom.

The benchmark never touches ``src/``: it measures a module from outside by
wrapping the public functions it calls.  An op is one span; every wrapped
call made while it runs is a child span of it.  Spans stay in memory and
are written out once, after the measured loop.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
import types
from contextlib import contextmanager


def plain_calls(table):
    """Namespace of the functions in ``table`` (span name -> function), unwrapped."""
    return types.SimpleNamespace(**{fn.__name__: fn for fn in table.values()})


class Tracer:
    """In-memory span recorder: (id, parent id, name, start, end) tuples."""

    def __init__(self):
        self.spans = []
        self._current = None
        self.origin = time.perf_counter()

    def calls(self, table):
        """Namespace like ``plain_calls`` whose functions record a span per call."""
        return types.SimpleNamespace(**{fn.__name__: self._wrap(name, fn) for name, fn in table.items()})

    def _wrap(self, name, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((len(spans), self._current, name, t0, time.perf_counter()))

        return traced

    @contextmanager
    def op(self, label):
        """Open the span of one op; wrapped calls inside it become its children."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; children are appended after it
        t0 = time.perf_counter()
        try:
            with self.parent(span_id):
                yield span_id
        finally:
            self.spans[span_id] = (span_id, None, label, t0, time.perf_counter())

    @contextmanager
    def parent(self, span_id):
        """Make wrapped calls children of ``span_id``, also after that op's span closed."""
        self._current = span_id
        try:
            yield
        finally:
            self._current = None

    def add(self, name, start, end, parent):
        """Record a span measured elsewhere (a child process, or after the op ended)."""
        self.spans.append((len(self.spans), parent, name, start, end))

    def busy(self, scale):
        """Per child-span name: (summed duration, call count).

        Each duration is multiplied by ``scale[parent op span id]``.
        """
        out = {}
        for _, parent, name, t0, t1 in self.spans:
            if parent is None:
                continue
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (t1 - t0) * scale[parent], calls + 1)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0 - self.origin, "end": t1 - self.origin}) + "\n")


def profiled_call_counts(run, functions):
    """Run ``run()`` under cProfile; return the call count of each (file suffix, name)."""
    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler).stats
    counts = dict.fromkeys(functions, 0)
    for (filename, _, funcname), (_, ncalls, _, _, _) in stats.items():
        for suffix, name in functions:
            if funcname == name and filename.replace("\\", "/").endswith(suffix):
                counts[(suffix, name)] += ncalls
    return counts
