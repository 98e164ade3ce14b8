"""The machine's momentary speed, read off a fixed reference kernel.

On a shared host the same code runs up to half again slower for tens of
seconds at a time, when a neighbour loads the same physical core.  The
gated timings therefore divide out the host's slowdown: a short reference
kernel, which is benchmark code and never changes with the program, is
timed right before and right after each measured piece of work, and

    slowdown = (mean of the two kernel times) / NOMINAL_S

A timing reported "at reference speed" is the measured time divided by
that slowdown.  The raw measured times are printed next to it.

Two kernels, so that each workload is gauged by work that slows down the
way its own does: big-integer modular multiplication for the curve and
proof workloads, dictionary, tuple and heap churn for the event loops.
"""

from __future__ import annotations

import heapq
import statistics
import time

NOMINAL_S = 0.02
_P381 = int(
    "1a0111ea397fe69a3b6b6b9f5b0f4c7e7b0c4f9d3a11aab0e0ed2b1d3f3ebf6fffeb153ffffb9feffffffffaaab",
    16,
)


def _bigint() -> int:
    x = 0x123456789ABCDEF
    for i in range(23_000):
        x = (x * x + i) % _P381
    return x


def _objects() -> int:
    heap: list = []
    table: dict = {}
    for i in range(21_000):
        key = (i, i * 7 % 13, "r%d" % (i % 50))
        table[key[2]] = key
        heapq.heappush(heap, (key[1], i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table)


KERNELS = {"bigint": _bigint, "objects": _objects}


class Gauge:
    """Times one reference kernel; three runs per reading, median kept."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]

    def read(self) -> float:
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    @staticmethod
    def slowdown(before_s: float, after_s: float) -> float:
        return (before_s + after_s) / 2 / NOMINAL_S
