"""Machine calibration shared by the benchmarks that gate on speed.

``reference_seconds`` times a fixed deterministic workload with the
solver's op mix, so ``benchmarks/compare_bench.py`` can compare
normalised figures (fit seconds ÷ reference, pairs/sec × reference)
from machines of different speeds instead of raw wall-clock.
"""

import time

import numpy as np


def machine_reference_seconds() -> float:
    """A fixed deterministic workload timing this machine's BLAS.

    Mirrors the solver's op mix (GEMM + matvec + elementwise exp) at a
    fixed size, min of 3 repeats.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    v = rng.standard_normal(200)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        c = a
        for _ in range(20):
            c = a @ c
            c /= np.abs(c).max()
        for _ in range(200):
            v = np.exp(-np.abs(a @ v) / 50.0)
        best = min(best, time.perf_counter() - t0)
    return best
