"""Load for the service workload: an open-loop reader and a scheduled writer.

Both run as threads of the benchmark process, each on its own keep-alive
connection. Every request carries an ``X-Request-Id`` so the server-side
spans it causes can be joined to it.

Latency is timed from the request's *due* time, not from when it was sent,
so a stalled server shows up in every read queued behind the stall.
*Lateness* is the generator's own delay: how long after it could have sent
a request (its due time, or the end of the previous request on the same
connection if that was later) it actually did. If lateness grows, the
generator, not the program, set the read numbers.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import spans as sp

OK_STATUSES = (200, 304)


@dataclass
class Sample:
    due: float
    start: float
    end: float
    status: int

    @property
    def latency(self) -> float:
        return self.end - self.due


class Connection:
    """One keep-alive HTTP/1.1 connection with conditional GETs."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        self.etags: dict[str, str] = {}

    def request(self, method: str, path: str, rid: str,
                body: bytes | None = None) -> tuple[int, bytes]:
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        elif path in self.etags:
            headers["If-None-Match"] = self.etags[path]
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        etag = resp.getheader("ETag")
        if method == "GET" and etag is not None and resp.status in OK_STATUSES:
            self.etags[path] = etag
        return resp.status, data

    def close(self) -> None:
        self.conn.close()


def open_loop(due_times: Sequence[float], send: Callable[[int], int],
              stop_at: float, sleep=time.sleep) -> tuple[list[Sample], list[float]]:
    """Issue request ``i`` at ``due_times[i]``; returns samples and lateness.

    Requests due at or after ``stop_at`` are not sent. ``send(i)`` performs
    the request and returns its status.
    """
    samples: list[Sample] = []
    lateness: list[float] = []
    free_at = float("-inf")
    for i, due in enumerate(due_times):
        if due >= stop_at:
            break
        wait = due - sp.clock()
        if wait > 0:
            sleep(wait)
        start = sp.clock()
        lateness.append(start - max(due, free_at))
        status = send(i)
        free_at = sp.clock()
        samples.append(Sample(due, start, free_at, status))
    return samples, lateness


@dataclass
class Refresh:
    due: float
    end: float
    statuses: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s in OK_STATUSES for s in self.statuses)

    @property
    def latency(self) -> float:
        """Due time to end of sweep; a failed refresh misses every limit."""
        return self.end - self.due if self.ok else float("inf")


def run_window(port: int, routes: Sequence[str], reader_routes: Sequence[str],
               micro_batches: Sequence[bytes], *, seconds: float, period: float,
               reader_sweeps: int, writer_etags: dict[str, str] | None = None):
    """The timed window: a scheduled writer and an open-loop reader.

    The writer posts ``micro_batches[k]`` at ``t0 + k * period`` and then
    re-reads ``routes`` with ``If-None-Match``. The reader sends conditional
    GETs round-robin over ``reader_routes``, ``reader_sweeps`` full rounds
    per writer period. Its rate is thus commensurate with the writer's, and
    its ticks sit half a tick after the writer's: every ingest meets the
    reader at the same point of its round, so the two connections race the
    same way for every micro-batch instead of by chance.
    Returns ``(refreshes, reads, read lateness, reads offered, t0, t1)``.
    """
    writer, reader = Connection(port), Connection(port)
    if writer_etags:
        writer.etags.update(writer_etags)
        reader.etags.update(writer_etags)
    t0 = sp.clock() + 0.05
    stop_at = t0 + seconds
    refreshes: list[Refresh] = []

    def write(k: int) -> int:
        refresh = Refresh(due=t0 + k * period, end=0.0)
        status, _ = writer.request("POST", "/ingest", f"w{k}", micro_batches[k])
        refresh.statuses.append(status)
        for j, path in enumerate(routes):
            refresh.statuses.append(writer.request("GET", path, f"w{k}.{j}")[0])
        refresh.end = sp.clock()
        refreshes.append(refresh)
        return status

    writer_due = [t0 + k * period for k in range(len(micro_batches))]
    thread = threading.Thread(target=open_loop, args=(writer_due, write, stop_at))
    thread.start()
    tick = period / (reader_sweeps * len(reader_routes))
    n_reads = math.ceil(seconds / tick - 0.5)  # those due inside the window
    read_due = [t0 + (i + 0.5) * tick for i in range(n_reads)]
    reads, lateness = open_loop(
        read_due,
        lambda i: reader.request(
            "GET", reader_routes[i % len(reader_routes)], f"r{i}")[0],
        stop_at,
    )
    thread.join()
    t1 = sp.clock()
    writer.close()
    reader.close()
    return refreshes, reads, lateness, n_reads, t0, t1
