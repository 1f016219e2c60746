"""Momentary machine speed, so that times do not drift with the load other
tenants put on a shared host.

On a shared host the same op can take 40% longer from one minute to the
next, in CPU time as well as wall time, because other processes contend
for the core's caches and execution units.  A fixed loop of the same kind
of work as the library's slows down with it: Dijkstra runs on a fixed
random graph in pure Python, and a maximum-adjacency scan on a small dense
int64 matrix in numpy, as in the Stoer-Wagner min cut.

While a ``Speed`` is entered, an interval timer interrupts the process
every PERIOD_S and the signal handler times one unit of that loop, in the
main thread, between the library's bytecodes; no thread is started.  An
op's time is its wall time minus the time spent in the handler, scaled by
REFERENCE_S over the mean unit time around the op (of the units timed
during it and up to WINDOW_S before and after, at least MIN_UNITS of them,
less the highest and lowest tenth): the time the op would take on a host
where one unit takes REFERENCE_S.  A mean, not a median, because a slow
spell lengthens the op in proportion to its length.  While the process only waits for a child process, the timer is
stopped (units run then would compete with the child for the host) and a
burst of units is timed right before and right after the child instead.
The loop does not depend on the library, so a change to the library moves
scaled times as it moves wall times.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# About the median unit time on the 2-core host the baseline was taken on.
REFERENCE_S = 2.5e-3
PERIOD_S = 0.05
WINDOW_S = 0.1
MIN_UNITS = 10
NODES = 400
SOURCES = (0, 200)
MATRIX = 96
SCANS = 60
BURST = 10


class Speed:
    def __init__(self) -> None:
        rng = random.Random(0)
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(NODES)]
        for _ in range(3 * NODES):
            u, v, w = rng.randrange(NODES), rng.randrange(NODES), rng.randint(1, 100)
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
        self.matrix = np.random.default_rng(0).integers(0, 5, size=(MATRIX, MATRIX)).astype(np.int64)
        self.starts: list[float] = []
        self.units: list[float] = []
        self.busy = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _unit(self) -> int:
        total = 0
        for s in SOURCES:
            dist = {s: 0}
            heap = [(0, s)]
            done = set()
            while heap:
                d, v = heapq.heappop(heap)
                if v in done:
                    continue
                done.add(v)
                for w, c in self.adj[v]:
                    if w not in dist or d + c < dist[w]:
                        dist[w] = d + c
                        heapq.heappush(heap, (d + c, w))
            total += sum(dist.values())
        conn = self.matrix[0].copy()
        free = np.ones(MATRIX, dtype=bool)
        for _ in range(SCANS):
            j = int(np.argmax(np.where(free, conn, -1)))
            free[j] = False
            conn += self.matrix[j]
        return total + int(conn.sum())

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._unit()
        t1 = perf_counter()
        self.starts.append(t0)
        self.units.append(t1 - t0)
        self.busy += t1 - t0

    def _burst(self) -> None:
        for _ in range(BURST):
            self._tick(None, None)

    @contextmanager
    def waiting(self):
        """Stop the timer while the process waits for a child process."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._burst()
        try:
            yield
        finally:
            self._burst()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, measured between `start` and `end`, at reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        while hi - lo < MIN_UNITS and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        if lo == hi:
            raise RuntimeError("the speed sampler took no samples")
        near = sorted(self.units[lo:hi])
        cut = len(near) // 10
        return seconds * REFERENCE_S / statistics.fmean(near[cut:len(near) - cut])
