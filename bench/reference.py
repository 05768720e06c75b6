"""A fixed pure-Python computation that measures host speed.

The machines this benchmark runs on are shared, and their speed drifts by
a fifth or more over minutes.  Every worker times this reference between
ops; run.py scales each op time by ``NOMINAL_S`` over the median of the
reference samples taken around it, and the set-up time by ``NOMINAL_S``
over the median of all the worker's samples, so that figures from a slow
and a fast minute, or a slow and a fast core, compare.  The reference does
the kind of work ``dpcolor`` does (sets, dicts, tuples, small calls) and
uses none of its code.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.002        # reference time that adjusted figures assume
EVERY_S = 0.1            # op time between two reference samples
WINDOW = 3               # samples on each side of an op that adjust it
WARM_SAMPLES = 5         # samples taken before the first op

_N = 700
_ADJ = tuple(frozenset({(v + 1) % _N, (v - 1) % _N, (v * 7 + 3) % _N,
                        (v * 13 + 5) % _N} - {v}) for v in range(_N))


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def reference() -> int:
    """Breadth-first layers with per-edge neighbourhood sizes; fixed result."""
    seen = {0}
    frontier = [0]
    counts: dict[tuple[int, int], int] = {}
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(_ADJ[u]):
                counts[_edge(u, w)] = len(_ADJ[u] | _ADJ[w])
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sum(counts.values())


def sample() -> float:
    """Seconds one reference call takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def factor(samples: list[float], index: int) -> float:
    """Host factor for a time measured after ``samples[:index]`` was taken:
    nominal over the median of the samples around it."""
    lo = max(0, min(index, len(samples) - 1) - WINDOW)
    window = samples[lo:index + WINDOW]
    return NOMINAL_S / statistics.median(window)
