"""Spans around the benchmark's calls into the program.

A span records name, start, end, parent span and op id.  Spans live in
memory and are handed to the caller at the end of a run.  With tracing off
``call`` is a plain function call, so untraced runs pay nothing for it.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class Tracer:
    """Span recorder; one per worker process."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # [name, start, end, parent index or -1, op id, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.phase = "setup"

    def call(self, name: str, fn: Callable[..., Any], *args, **kwargs) -> Any:
        """``fn(*args, **kwargs)``, inside a span named ``name`` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op_id, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one parent run one after another here (single thread), so
    their durations add without overlap.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
