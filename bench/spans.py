"""Spans around the benchmark's calls into wsys, kept in memory.

A span records its name ("<module>.<function>"), its parent span, the
input (request) it belongs to, and its start and end.  Self time is the
span's duration minus the time its child spans cover.  Child spans arise
when the benchmark hands a traced function to wsys as a callback, as the
family workload does with ``primitive_eval_diagram(feps, ...)``.

``NullTracer`` is the untraced mode: ``wrap`` returns the function itself
and ``span`` does nothing, so untraced runs call wsys directly.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import nullcontext


class NullTracer:
    enabled = False

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return nullcontext()

    def request(self, index):
        pass


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end, self)
        self._stack: list[list] = []  # [id, name, start, child_time]
        self._request = None
        self.poly_terms = 0

    def request(self, index):
        """Mark the input that the following spans belong to."""
        self._request = index

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._count_terms(result)
            return result

        return traced

    def _open(self, name):
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += end - start
        self.spans.append((sid, parent, self._request, name, start, end, end - start - child))

    def _count_terms(self, result):
        terms = getattr(result, "terms", None)  # Poly
        if terms is None:
            terms = getattr(getattr(result, "num", None), "terms", None)  # RatFunc
        if terms is not None:
            self.poly_terms += len(terms)

    def summary(self) -> dict:
        """Self seconds and call counts per span name and per module."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _, _, _, name, _, _, own in self.spans:
            module = name.split(".", 1)[0]
            for key in (name, module):
                self_s[key] += own
                calls[key] += 1
        return {"self_s": dict(self_s), "calls": dict(calls)}

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end, _ in self.spans if n == name]

    def write(self, path):
        fields = ["id", "parent", "request", "name", "start", "end", "self"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
