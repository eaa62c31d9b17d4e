"""Threaded shared-memory restart strategy (``threaded-restart``).

The process-pool block executor of :mod:`repro.scale` *loses* on this
workload (serialising graphs across processes costs more than the
solve), but the restart portfolio is embarrassingly parallel at the
run level and NumPy's BLAS calls release the GIL — so a
:class:`~concurrent.futures.ThreadPoolExecutor` over the *same
address space* can overlap the per-restart GEMMs with zero pickling.

Strategy
--------
Between portfolio checkpoints every active run's ``step_until`` is
submitted to the pool; pruning decisions then happen on the main
thread exactly as in the serial scheduler, so the portfolio policy
(starts, checkpoints, margins) is untouched.  Each run's trajectory is
a deterministic function of its own state:

* in **float64** mode the runs are plain
  :class:`~repro.engine.restarts.RestartRun` objects — shared
  :class:`JointObjective` caches only ever serve values that are
  bitwise-deterministic recomputations, so the result is bit-for-bit
  ``fused-dense`` at any worker count;
* in **float32** mode the runs are :class:`~repro.engine.mixed.MixedRun`
  over one shared :class:`~repro.engine.mixed._MixedLockstep`, whose
  scratch comes from per-thread workspaces
  (:class:`~repro.ot.workspace.WorkspaceArena`) — no buffer aliasing
  across threads, and the result is bit-for-bit ``fused-dense-f32``.

BLAS threads: the process-wide policy of :mod:`repro.engine.blas`
runs every BLAS call on one thread, so W pool threads occupy W cores
instead of W full BLAS teams.  Under ``available_cpus() == 1`` (or
``max_workers=1``) no pool is created at all and the loop is the
serial reference scheduler.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.objective import JointObjective
from repro.engine.blas import blas_threads
from repro.engine.mixed import MixedRun, _MixedLockstep
from repro.engine.precision import DEFAULT_PRECISION, ensure_precision
from repro.engine.restarts import (
    RestartRun,
    build_starts,
    portfolio_phase_timings,
    portfolio_result,
    prune_schedule,
    select_best,
)
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
        ``"float32"`` (bitwise ``fused-dense-f32``).
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

    @staticmethod
    def _advance(runs, target: int, pool) -> None:
        live = [run for run in runs if run.active]
        if pool is None or len(live) <= 1:
            for run in live:
                run.step_until(target)
            return
        # consuming the map iterator re-raises worker exceptions
        list(pool.map(lambda run: run.step_until(target), live))

    # ------------------------------------------------------------------
    def solve(self, problem):
        from repro.engine.backends import ensure_classical_problem
        from repro.scale.executor import available_cpus

        cfg = problem.config
        ensure_classical_problem(problem, self.name)
        with Timer() as timer:
            source_bases, target_bases = problem.bases
            k = len(source_bases)
            objective = JointObjective(
                source_bases, target_bases, fused=cfg.fused_contractions
            )
            mu, nu = problem.marginals()
            plan0, informative_init = problem.initial_coupling(mu, nu)
            starts = build_starts(cfg, objective.n_bases, informative_init)
            if self.precision.name == DEFAULT_PRECISION:
                runs = [
                    RestartRun(objective, cfg, beta0, learn, plan0, mu, nu, label)
                    for label, beta0, learn in starts
                ]
            else:
                lockstep = _MixedLockstep(
                    cfg,
                    mu,
                    nu,
                    capacity=1,  # threaded runs step one slice per thread
                    precision=self.precision,
                    arena=self.arena,
                )
                runs = [
                    MixedRun(lockstep, objective, cfg, beta0, learn, plan0, label)
                    for label, beta0, learn in starts
                ]
            workers = self._worker_count(len(runs))
            cpus = available_cpus()
            pool = (
                ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="restart"
                )
                if workers > 1
                else None
            )
            try:
                checkpoints = prune_schedule(cfg) if len(runs) > 1 else []
                for checkpoint, margin in checkpoints:
                    self._advance(runs, checkpoint, pool)
                    contenders = {
                        run.label: run.current_objective()
                        for run in runs
                        if not run.pruned
                    }
                    leader = min(contenders.values())
                    for run in runs:
                        if run.active and contenders[run.label] > leader + margin:
                            run.prune()
                self._advance(runs, cfg.max_outer_iter, pool)
            finally:
                if pool is not None:
                    pool.shutdown(wait=True)
            outcomes = [run.outcome() for run in runs]
            best = select_best(outcomes)
        result = portfolio_result(
            self.name, outcomes, best, k, checkpoints,
            portfolio_phase_timings(runs, problem.basis_seconds),
            runtime=timer.elapsed,
        )
        result.extras["precision"] = self.precision.name
        result.extras["threading"] = {
            "workers": workers,
            "requested_workers": self.max_workers,
            "cpus": cpus,
            "blas_threads": blas_threads(),
        }
        return result


__all__ = ["ThreadedRestartBackend"]
