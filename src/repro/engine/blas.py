"""Process-wide BLAS thread policy: one thread per BLAS call.

The solver's matrices are small (n ≈ 100–300), and every parallel
layer above BLAS — service workers, ``threaded-restart`` pools, block
executors — already fans out over the cores.  A multi-threaded BLAS
team under those workers oversubscribes the box: two serve workers
each driving a 2-thread OpenBLAS team on 2 cores served a burst at
about half the throughput they reach with single-threaded BLAS.

Importing :mod:`repro.engine` therefore sets the team size of the
OpenBLAS copies bundled with the NumPy and SciPy wheels (``numpy.libs``
and ``scipy.libs``; NumPy's runs the dense solver, SciPy's the LAPACK
and ARPACK calls such as the spectral partition) to **one** thread,
once, for the whole process.  The cap is process-wide and fixed rather
than scoped to a service or pool because

* OpenBLAS keeps one global thread count, so per-pool scoping races
  between concurrent pools;
* the team size changes the floating-point reduction order: plans
  solved with 1 and 2 threads differ in their last bits, so a cap set
  only while a service runs breaks the served-equals-direct bitwise
  contract.

A user who sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` keeps
their choice: the policy then leaves the teams alone.  The policy never
writes ``os.environ``.  On builds without the bundled OpenBLAS (MKL,
Accelerate, a system BLAS), ``threadpoolctl`` caps the team if it is
installed; otherwise the team is left as it is and
:func:`blas_threads` reports ``None``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os

POLICY_THREADS = 1
"""BLAS team size the process runs with unless the environment says
otherwise."""

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
"""Environment variables that override the policy."""


BUNDLED_OPENBLAS = ("numpy", "scipy")
"""Packages whose wheels ship their own OpenBLAS in ``<package>.libs``."""

_SYMBOL_SUFFIXES = ("64_", "")
"""``scipy_openblas_{set,get}_num_threads`` suffixes: NumPy ships the
ILP64 build, SciPy the LP64 one."""


class _OpenBLAS:
    """Thread-count entry points of one loaded OpenBLAS library."""

    def __init__(self, lib, suffix: str):
        self._set = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None
        self._get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        self._get.argtypes = []
        self._get.restype = ctypes.c_int

    def set_threads(self, n: int) -> None:
        self._set(n)

    def threads(self) -> int:
        return int(self._get())


def _bundled_openblas() -> list[_OpenBLAS]:
    """The OpenBLAS libraries bundled with NumPy and SciPy that exist.

    Locates each package without importing it; loading a library that
    the package loads later hands both the same copy.
    """
    found = []
    for package in BUNDLED_OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        pkg_dir = list(spec.submodule_search_locations)[0]
        libs = os.path.join(os.path.dirname(pkg_dir), f"{package}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for suffix in _SYMBOL_SUFFIXES:
                if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                    found.append(_OpenBLAS(lib, suffix))
                    break
    return found


_OPENBLAS = _bundled_openblas()


def thread_env() -> dict[str, str]:
    """The thread-count variables set in the environment."""
    return {name: os.environ[name] for name in THREAD_ENV if name in os.environ}


def blas_threads() -> int | None:
    """The largest BLAS team in the process, or None when unknown."""
    if _OPENBLAS:
        return max(lib.threads() for lib in _OPENBLAS)
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return None
    teams = [p["num_threads"] for p in threadpool_info() if p["user_api"] == "blas"]
    return max(teams) if teams else None


def apply_blas_policy() -> None:
    """Set every BLAS team to :data:`POLICY_THREADS` unless overridden."""
    if thread_env():
        return
    if _OPENBLAS:
        for lib in _OPENBLAS:
            lib.set_threads(POLICY_THREADS)
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return
    threadpool_limits(limits=POLICY_THREADS, user_api="blas")


__all__ = [
    "BUNDLED_OPENBLAS",
    "POLICY_THREADS",
    "THREAD_ENV",
    "apply_blas_policy",
    "blas_threads",
    "thread_env",
]
