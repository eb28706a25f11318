"""Spans and counters recorded around the program's public callables.

A :class:`Tracer` replaces a callable in the namespace its caller looks it
up in (a module global such as ``phasecov.covariance.phase_harmonic``, a
class attribute such as ``EdgeComputer.edge_values`` or ``numpy.fft.fft2``)
with a wrapper that records one span per call: name, start, end, parent
span and the current run id.  Spans stay in memory until :meth:`write_csv`.
Nothing inside ``src/`` is edited; :meth:`restore` puts every original back.
"""

import csv
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, run id]
        self.counters = defaultdict(float)  # (run id, key) -> amount
        self.run_id = ""
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Trace ``owner.attr`` as spans called ``name``.

        ``before(tracer, args, kwargs)`` may return replacement (args, kwargs);
        ``after(tracer, args, result)`` may add counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def count(self, key, amount):
        self.counters[(self.run_id, key)] += amount

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "run_id"])
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, run_id])

    def counted(self, key, runs):
        """Sum of :meth:`count` amounts for ``key`` over run ids starting with ``runs``."""
        return sum(v for (run_id, k), v in self.counters.items() if k == key and run_id.startswith(runs))

    def summary(self, runs, inside=None):
        """Per-name call count, total, self time and durations.

        Only spans whose run id starts with ``runs`` (a prefix or a tuple of
        prefixes) count.  A span's self time is its duration minus the
        durations of its direct children.
        With ``inside`` set, the result also holds ``inside_counts``: per
        name, the spans that have an ancestor (or are themselves) named
        ``inside``.
        """
        child = [0.0] * len(self.spans)
        within = [False] * len(self.spans)
        for i, (name, start, end, parent, _run) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
            within[i] = name == inside or (parent >= 0 and within[parent])
        stats = {}
        inside_counts = defaultdict(int)
        for i, (name, start, end, _parent, run_id) in enumerate(self.spans):
            if not run_id.startswith(runs):
                continue
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["durations"].append(end - start)
            if within[i]:
                inside_counts[name] += 1
        return stats, inside_counts


class CallTimer:
    """Untraced counterpart of a span: the durations of one callable's calls."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.original = original = getattr(owner, attr)
        self.durations = durations = []
        self.cpu_durations = cpu_durations = []

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)
                cpu_durations.append(time.process_time() - c0)

        setattr(owner, attr, timed)

    def restore(self):
        setattr(self.owner, self.attr, self.original)
