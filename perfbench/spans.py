"""Span tracing for the benchmark's in-process per-layer pass.

Spans are recorded from the benchmark's own wrappers, which `layers.hooks`
installs around the public functions of each pdnskit module for the
duration of one traced command. Every span has a name, a start, an end and
a parent. Per name the tracer keeps an aggregate (count, total time, self
time, parent names); the coarse spans `Tracer.span` opens around blocks of
the benchmark's own code are also kept whole.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Aggregate:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    parents: Counter = field(default_factory=Counter)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "total_ms": self.total_ns / 1e6,
            "self_ms": self.self_ns / 1e6,
            "parents": dict(self.parents),
        }


class Tracer:
    def __init__(self):
        self.aggregates: dict[str, Aggregate] = {}
        self.spans: list[dict] = []  # whole records of the coarse spans
        # Open spans, innermost last: [name, time covered by children in ns].
        self._stack: list[list] = []

    def aggregate(self, name: str) -> Aggregate:
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = Aggregate()
        return agg

    def _close(self, agg: Aggregate, frame: list, start: int, end: int) -> str:
        stack = self._stack
        stack.pop()
        dur = end - start
        agg.count += 1
        agg.total_ns += dur
        agg.self_ns += dur - frame[1]
        parent = stack[-1][0] if stack else ""
        agg.parents[parent] += 1
        if stack:
            stack[-1][1] += dur
        return parent

    @contextmanager
    def span(self, name: str):
        """A recorded span around a block of the benchmark's own code."""
        agg = self.aggregate(name)
        frame = [name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            parent = self._close(agg, frame, start, end)
            self.spans.append({"name": name, "start_ns": start, "end_ns": end, "parent": parent})

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with one span per call; `on_result` sees each return value."""
        agg = self.aggregate(name)
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(agg, frame, start, clock())
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_iter(self, name: str, gen_fn):
        """A generator function whose every step is one span, so the work a
        lazy stage does per item is charged to that stage."""
        agg = self.aggregate(name)
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        def traced(*args, **kwargs):
            it = iter(gen_fn(*args, **kwargs))
            while True:
                frame = [name, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    close(agg, frame, start, clock())
                    agg.count -= 1  # count items, not the final empty step
                    return
                except BaseException:
                    close(agg, frame, start, clock())
                    raise
                close(agg, frame, start, clock())
                yield item

        return traced

    def to_json(self) -> dict:
        return {
            "aggregates": {k: v.to_json() for k, v in sorted(self.aggregates.items())},
            "spans": self.spans,
        }


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = []
    try:
        for owner, attr, value in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
