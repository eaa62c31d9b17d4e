"""Statistics, output checks and environment capture for the benchmark."""

from __future__ import annotations

import ctypes
import glob
import os
import resource
import statistics
from dataclasses import dataclass

import numpy as np

TAIL_BEYOND = 10
"""The tail is reported at the highest percentile that still has this
many ops beyond it, so one stray op never sets it."""

ROW_MASS_RTOL = 1e-6
"""Allowed error of a plan's row sums against the source marginal,
relative to its largest entry.  Plans of the shipped solvers match it
to rounding (about 1e-16); a broken projection misses by far more."""

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class Op:
    """One op: latency in seconds (``None`` if it never finished)."""

    latency: float | None
    ok: bool
    hit1: float | None = None
    traced: bool = False


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n_beyond)`` of the latency tail.

    The highest order statistic with at least :data:`TAIL_BEYOND`
    samples above it, but never below the median: with fewer than
    ``2 * TAIL_BEYOND + 1`` samples no percentile above the median has
    that many beyond it, and the median is reported (its percentile
    says so).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    percentile = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], percentile, n - 1 - k


def summarize(ops: list[Op], wall_seconds: float) -> dict:
    """End-to-end numbers over the ops of one run."""
    done = [op for op in ops if op.ok and op.latency is not None]
    if not done:
        raise RuntimeError("no op completed in the measured window")
    latencies = [op.latency for op in done]
    tail_value, tail_pct, beyond = tail(latencies)
    hits = [op.hit1 for op in done if op.hit1 is not None]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "samples": len(latencies),
        "throughput_ops_per_s": len(done) / wall_seconds,
        "hit1": statistics.fmean(hits) if hits else float("nan"),
        "failed_frac": (len(ops) - len(done)) / len(ops),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plan_problems(plan, row_mass) -> list[str]:
    """Why ``plan`` is not a valid transport plan (empty when it is).

    ``plan`` is dense or scipy sparse; ``row_mass`` is the source
    marginal it must reproduce row by row.
    """
    values = plan.data if hasattr(plan, "tocsr") else np.asarray(plan)
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append("plan has non-finite entries")
    if np.any(values < 0):
        problems.append("plan has negative entries")
    rows = np.asarray(plan.sum(axis=1)).ravel()
    mass = np.asarray(row_mass, dtype=np.float64)
    if rows.shape != mass.shape:
        problems.append(f"plan has {rows.size} rows, marginal has {mass.size}")
    else:
        error = np.max(np.abs(rows - mass)) / np.max(mass)
        if not error <= ROW_MASS_RTOL:  # also catches NaN
            problems.append(f"row mass off by {error:.3g} (relative)")
    return problems


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, read-only."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(**extra) -> dict:
    """What the run depended on, recorded beside every result."""
    import scipy

    from repro.scale import available_cpus

    thread_env = {k: os.environ[k] for k in THREAD_ENV if k in os.environ}
    return {
        "available_cpus": available_cpus(),
        "openblas_threads": openblas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": thread_env,
        "thread_env_flag": bool(thread_env),
        **extra,
    }
