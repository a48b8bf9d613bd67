"""A fixed pure-Python kernel that samples how fast the machine runs now.

The machine is shared: for minutes at a time the same op runs up to 2.5
times slower because of work outside this process. The kernel is sampled
before an op at most every ``EVERY_S`` seconds, so each op lies between
two samples, and the timed metrics rescale each op's time by the mean of
those two samples against ``REFERENCE_S``, the kernel's time on a quiet
2-CPU Xeon container. On that machine this halves the op-to-op spread of
the partition op (coefficient of variation 0.17-0.27 down to 0.08-0.14).

The kernel does what the program's hot loops do: Dijkstra over list
adjacency with ``heapq``, and bitmask walks. It never calls the program,
so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time

REFERENCE_S = 0.0125
EVERY_S = 0.5


class SpeedProbe:
    def __init__(self):
        rng = random.Random(7)
        n = 400
        self.adj = [[(v, rng.randint(1, 100)) for v in rng.sample(range(n), 20)] for _ in range(n)]
        self.masks = [rng.getrandbits(n) for _ in range(n)]
        self.times: list[float] = []
        self._last = -float("inf")

    def mark(self) -> int:
        """Sample if the last sample is older than ``EVERY_S``; return the
        index of the latest sample, to be passed to ``reference_time``."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()
        return len(self.times) - 1

    def sample(self) -> int:
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.times.append(self._last - t0)
        return len(self.times) - 1

    def reference_time(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after sample ``mark``, rescaled to the
        reference speed by the samples on either side of it."""
        around = self.times[mark : mark + 2]
        return seconds * REFERENCE_S * len(around) / sum(around)

    def _kernel(self) -> int:
        adj, masks, n = self.adj, self.masks, len(self.adj)
        for src in range(6):
            dist = [1 << 30] * n
            dist[src] = 0
            heap = [(0, src)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if d + w < dist[v]:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
        acc = 0
        for i in range(n):
            m = masks[i] & ~masks[(i * 7) % n]
            while m:
                low = m & -m
                acc += low.bit_length()
                m ^= low
        return acc
