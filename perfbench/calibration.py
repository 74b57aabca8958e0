"""A fixed calibration loop that measures how fast the host runs right now.

The shared 2-core host this benchmark was written on changes speed by 20-40%
within seconds (a fixed loop took 0.37-0.62 s per slice over 40 slices), so
raw round times of identical work spread by 16-25% between benchmark runs.
The benchmark times one slice of this loop before every simulation run and
after the last, and scales each run's host time by ``REFERENCE_S`` over the
mean of the two slices around it. The loop mixes what the simulator does:
heap and dict traffic, string formatting and hashing, and small numpy
matrix and vector operations.
"""

from __future__ import annotations

import hashlib
import heapq
import time

import numpy as np

# Median slice time on the reference host (see README.md).
REFERENCE_S = 0.035

_RNG = np.random.default_rng(20240602)
_X = _RNG.normal(size=(48, 256))
_W = _RNG.normal(size=(256, 10))
_V = _RNG.normal(size=2570)
_H = _RNG.normal(size=(32, 64))


def slice_s(iterations: int = 1000) -> float:
    """Host seconds for one slice of fixed work."""
    t0 = time.perf_counter()
    heap: list = []
    seen: dict = {}
    h = hashlib.sha256()
    v = _V
    for i in range(iterations):
        heapq.heappush(heap, (float(i * 7919 % 104729), i, "deliver"))
        seen[i % 97] = seen.get(i % 97, 0) + 1
        h.update(f"{i * 0.25:.9f}|{i}|deliver|{i % 13}".encode())
        z = _X @ _W
        z = np.exp(z - z.max(axis=1, keepdims=True))
        v = v + 0.001 * (z.sum() * 1e-9 - v)
        np.tanh(_H)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0
