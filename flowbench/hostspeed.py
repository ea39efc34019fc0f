"""Host-speed calibration for the flow benchmark.

The benchmark runs on shared hosts whose speed drifts by up to ±25% over
minutes, so whole runs land in fast or slow stretches and their wall
times move with them.  ``calibrate`` is a fixed piece of pure-Python
work in the style of the program's hot loops (a heap-driven shortest
path search over a grid, dict lookups and integer arithmetic).  It
imports nothing from ``repro``, so no change to the program moves it:
its time measures the host, and dividing a flow time by it removes the
host's drift, not the program's.
"""

from __future__ import annotations

import heapq
import time

#: grid side and searches per call: one call takes ~0.4 s on the
#: reference host, and a small grid keeps its memory out of peak RSS
GRID = 75
REPEATS = 32
#: calibration time that defines the reference host: a normalised time
#: reads as wall seconds on a host where one ``calibrate`` takes this long
REFERENCE_S = 0.4
#: shortest-path cost corner to corner, the check that the work was done
SEARCH_COST = 441


def _search(n: int) -> int:
    """Dijkstra from corner to corner over an ``n`` x ``n`` grid."""
    weights = []
    x = 12345
    for _ in range(n * n):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        weights.append(1 + (x >> 16) % 9)
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        iy, ix = divmod(u, n)
        for v in (
            u - 1 if ix else -1,
            u + 1 if ix + 1 < n else -1,
            u - n if iy else -1,
            u + n if iy + 1 < n else -1,
        ):
            if v < 0:
                continue
            nd = d + weights[v]
            if nd < dist.get(v, 1 << 60):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist[n * n - 1]


def calibrate() -> float:
    """Seconds the fixed searches take on this host right now."""
    t0 = time.perf_counter()
    cost = sum(_search(GRID) for _ in range(REPEATS))
    seconds = time.perf_counter() - t0
    if cost != SEARCH_COST * REPEATS:
        raise RuntimeError(f"calibration search returned {cost}")
    return seconds
