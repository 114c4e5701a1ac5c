"""Span recording and the small statistics the benchmark reports.

A :class:`Recorder` keeps one flat list of spans. Each span has a name, a
start and end on the system-wide monotonic clock (so spans taken in a child
process line up with times the parent took), the id of its parent span on
the same thread, and the request id of the HTTP request that caused it, if
any. Wrappers installed by :mod:`layers` call :meth:`Recorder.wrap`.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Sequence

clock = time.monotonic


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counters: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # ------------------------------------------------------------------ #

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> str | None:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: str | None) -> None:
        self._local.rid = rid

    def count(self, name: str) -> None:
        """Record one event of ``name`` (its time, so it can be windowed)."""
        now = clock()
        with self._lock:
            self.counters.setdefault(name, []).append(now)

    @contextmanager
    def span(self, name: str, **attrs: Any):
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        rec = {
            "id": sid,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "rid": self.request_id,
            "start": clock(),
            "end": None,
            "attrs": attrs,
            "kids": [],
        }
        if stack:
            stack[-1]["kids"].append(name)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = clock()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Callable[[dict, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """``fn`` timed under a span ``name``; ``after`` may annotate it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with self._lock:
            doc = {"spans": list(self.spans), "counters": dict(self.counters)}
        with open(path, "w") as fh:
            json.dump(doc, fh, default=str)


def load(path: str) -> tuple[list[dict], dict[str, list[float]]]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc["spans"], doc["counters"]


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: dict, children: Iterable[dict]) -> float:
    """Duration of ``span`` minus the union of its children's intervals.

    Children are clipped to the parent, and overlapping children (two
    request threads working under one parent) are counted once.
    """
    lo, hi = span["start"], span["end"]
    clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children]
    return (hi - lo) - union_length(clipped)


def children_of(spans: Sequence[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault(s["parent"], []).append(s)
    return out


def duration(span: dict) -> float:
    return span["end"] - span["start"]


# ---------------------------------------------------------------------- #
# Order statistics
# ---------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def _rank(p: float, n: int) -> int:
    # Rounded first, so 99.9% of 10000 is rank 9990 and not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[_rank(p, len(values)) - 1]


def beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above the nearest-rank rank of ``p``."""
    return len(values) - _rank(p, len(values))


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float], min_beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, sample count)``; a tail read from fewer
    samples than that is an anecdote, not a percentile.
    """
    for p in TAIL_CANDIDATES:
        if beyond(values, p) >= min_beyond:
            return p, percentile(values, p), len(values)
    raise ValueError(
        f"{len(values)} samples leave fewer than {min_beyond} beyond the median"
    )
