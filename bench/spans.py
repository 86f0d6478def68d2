"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, ``op`` the index of the op it belongs to.  Spans
are kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._op = -1

    def op(self, op_id: int, body):
        """Run ``body(call)`` inside an ``op`` span; returns its result."""
        self._op = op_id
        return self.call("op", body, self.call)

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._op))
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (duration minus child spans) and call count
        per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
        return dict(self_s), dict(calls)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
