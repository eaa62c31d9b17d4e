"""Threaded shared-memory restart strategy (``threaded-restart``).

The process-pool block executor of :mod:`repro.scale` *loses* on this
workload (serialising graphs across processes costs more than the
solve), but the restart portfolio is embarrassingly parallel at the
run level and NumPy's BLAS calls release the GIL — so a
:class:`~concurrent.futures.ThreadPoolExecutor` over the *same
address space* can overlap the per-restart GEMMs with zero pickling.

Strategy
--------
The backend hands the shared
:func:`~repro.engine.restarts.run_portfolio` an ``advance`` that
submits every live run's ``step_until`` to the pool; pruning decisions
then happen on the main thread exactly as in the serial schedule, so
the portfolio policy (starts, checkpoints, margins) is untouched.
Each run's trajectory is a deterministic function of its own state:

* in **float64** mode the runs are plain
  :class:`~repro.engine.restarts.RestartRun` objects — shared
  :class:`JointObjective` caches only ever serve values that are
  bitwise-deterministic recomputations, so the result is bit-for-bit
  ``fused-dense`` at any worker count;
* in **float32** mode the runs are :class:`~repro.engine.mixed.MixedRun`
  over one shared :class:`~repro.engine.mixed._MixedLockstep`, whose
  scratch comes from per-thread workspaces
  (:class:`~repro.ot.workspace.WorkspaceArena`) — no buffer aliasing
  across threads, and the result is bit-for-bit ``batched-f32``.

BLAS threads: the process-wide policy of :mod:`repro.engine.blas`
runs every BLAS call on one thread, so W pool threads occupy W cores
instead of W full BLAS teams.  Under ``available_cpus() == 1`` (or
``max_workers=1``) no pool is created at all and the loop is the
serial reference scheduler.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.engine.blas import blas_threads
from repro.engine.mixed import MixedRun, _MixedLockstep
from repro.engine.precision import DEFAULT_PRECISION, ensure_precision
from repro.engine.restarts import RestartRun, solve_portfolio, step_serially
from repro.ot.workspace import WorkspaceArena
from repro.utils.timer import Timer


class ThreadedRestartBackend:
    """Restart portfolio fanned across a thread pool (new name).

    Parameters
    ----------
    max_workers:
        Pool width; default ``min(n_restarts, available_cpus())``.
        Forcing ``max_workers > 1`` on a single-core box is allowed
        (the bitwise contract holds at any width); ``1`` forces the
        serial loop.
    precision:
        ``"float64"`` (default, bitwise ``fused-dense``) or
        ``"float32"`` (bitwise ``batched-f32``).
    """

    name = "threaded-restart"
    kind = "dense"

    def __init__(
        self,
        max_workers: int | None = None,
        precision: str = DEFAULT_PRECISION,
        arena: WorkspaceArena | None = None,
    ):
        self.max_workers = max_workers
        self.precision = ensure_precision(precision)
        self.arena = arena

    # ------------------------------------------------------------------
    def _worker_count(self, n_runs: int) -> int:
        from repro.scale.executor import available_cpus

        if self.max_workers is not None:
            return max(1, min(self.max_workers, n_runs))
        return max(1, min(n_runs, available_cpus()))

    def _runs(self, objective, config, mu, nu, plan0, starts) -> list[RestartRun]:
        if self.precision.name == DEFAULT_PRECISION:
            return [
                RestartRun(objective, config, beta0, learn, plan0, mu, nu, label)
                for label, beta0, learn in starts
            ]
        lockstep = _MixedLockstep(
            objective,
            config,
            mu,
            nu,
            capacity=1,  # threaded runs step one slice per thread
            precision=self.precision,
            arena=self.arena,
        )
        return [
            MixedRun(lockstep, beta0, learn, plan0, label)
            for label, beta0, learn in starts
        ]

    # ------------------------------------------------------------------
    def solve(self, problem):
        from repro.engine.backends import ensure_classical_problem
        from repro.scale.executor import available_cpus

        cfg = problem.config
        ensure_classical_problem(problem, self.name)
        workers, pool = 1, None

        def setup(objective, mu, nu, plan0, starts):
            nonlocal workers, pool
            runs = self._runs(objective, cfg, mu, nu, plan0, starts)
            workers = self._worker_count(len(runs))
            if workers == 1:
                return runs, step_serially
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="restart"
            )
            return runs, partial(_step_in_pool, pool)

        with Timer() as timer:
            try:
                result = solve_portfolio(self.name, problem, setup)
            finally:
                if pool is not None:
                    pool.shutdown(wait=True)
        # the solve's runtime includes the pool's shutdown
        result.runtime = timer.elapsed
        result.extras["precision"] = self.precision.name
        result.extras["threading"] = {
            "workers": workers,
            "requested_workers": self.max_workers,
            "cpus": available_cpus(),
            "blas_threads": blas_threads(),
        }
        return result


def _step_in_pool(
    pool: ThreadPoolExecutor, runs: list[RestartRun], target: int
) -> None:
    """Advance each live run to ``target`` on the pool's threads."""
    if len(runs) <= 1:
        step_serially(runs, target)
        return
    # consuming the map iterator re-raises worker exceptions
    list(pool.map(lambda run: run.step_until(target), runs))


__all__ = ["ThreadedRestartBackend"]
