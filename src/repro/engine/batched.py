"""The ``batched-restart`` solver backend: one stacked-tensor portfolio.

The serial portfolio advances each restart in turn; on every outer
iteration each restart runs the same tensor program (α-gradient,
simplex projection, π-gradient, KL-proximal Sinkhorn projection) on
its own ``(n, m)`` iterate.  This backend advances **all live restarts
in lockstep**, stacking their iterates into ``(R, n, m)`` tensors so
each per-iteration contraction becomes one batched matmul instead of R
dispatches — on small problems (where BLAS call overhead rivals the
GEMM itself) that amortisation is the Fig. 7-regime win recorded in
``BENCH_solver.json``.

Bitwise contract
----------------
Every restart's iterate sequence is **bit-for-bit identical** to the
serial ``fused-dense`` backend's, because every batched operation used
here is bitwise-equal to its per-slice serial counterpart on the
supported BLAS configurations:

* batched ``matmul`` over a C-contiguous stack — including the
  transposed-view operands ``P.swapaxes(1, 2) @ D`` (transA) and
  ``pt @ P.swapaxes(1, 2)`` (transB) — calls the same per-slice GEMM
  kernels as the 2-D expressions ``P.T @ D`` / ``pt @ P.T``;
* the combined matrices ``D(β)`` are produced by the *same*
  sequential-accumulation :func:`repro.core.views.combine_bases` call
  (via ``JointObjective.combined``) and stacked by exact copy;
* elementwise kernels (log, exp, maximum, divide, broadcasting
  products) are order-independent per element;
* reductions keep the serial shapes: per-restart scalars (norms,
  objective values) are evaluated on contiguous slices with the exact
  serial expressions.

Restart lifecycles stay independent: a restart that converges or is
pruned is compressed out of the stack (sliced copies are exact) and
the survivors' trajectories are unaffected — exactly the property the
serial scheduler has.  ``tests/test_batched_restart.py`` pins the
whole contract across seeds, view counts and early-stopped restarts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import IterateHistory
from repro.core.objective import JointObjective
from repro.engine.planning import PreparedProblem
from repro.engine.restarts import (
    DEDUP_TOL_START,
    RunOutcome,
    _apply_dedup,
    build_starts,
    dedup_schedule,
    dedup_tolerance,
    eta_schedule,
    portfolio_result,
    prune_schedule,
    select_best,
)
from repro.exceptions import ConvergenceError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast_batched
from repro.utils.timer import Timer


class _BatchedRun:
    """One restart's state between lockstep iterations.

    Each run carries its *own* :class:`JointObjective`; within one
    pair every restart shares the objective instance.  All lockstep
    tensor work only ever touches a run's own slice, so the
    composition of the batch never changes any run's iterates.
    """

    __slots__ = (
        "label", "objective", "alpha", "plan", "history", "iteration",
        "pruned", "pruned_at", "learn_weights", "elapsed",
        "deduped", "merged_into",
    )

    def __init__(self, label, objective, beta0, learn_weights, plan0):
        self.label = label
        self.objective = objective
        self.alpha = np.concatenate([beta0, beta0])
        self.plan = plan0.copy()
        self.history = IterateHistory()
        self.iteration = 0
        self.pruned = False
        self.pruned_at = None
        self.deduped = False
        self.merged_into = None
        self.learn_weights = learn_weights
        self.elapsed = 0.0

    @property
    def finished(self) -> bool:
        return self.history.converged

    def prune(self) -> None:
        self.pruned = True
        self.pruned_at = self.iteration


class _LockstepPortfolio:
    """Advances a set of restarts iteration-by-iteration, batched.

    The runs share one objective (the within-pair portfolio).  The
    stepper also accepts runs carrying one objective each — a
    cross-pair stack that no caller builds any more — as long as they
    share the ``(n, m)`` plan shape, the marginals and the config, so
    the stacked contractions and the η schedule stay well-defined.
    """

    def __init__(self, config, mu, nu):
        self.config = config
        self.mu = mu
        self.nu = nu
        self.timings = {
            "alpha_update": 0.0, "pi_update": 0.0, "objective_eval": 0.0,
        }

    # ------------------------------------------------------------------
    def advance(
        self,
        runs: list[_BatchedRun],
        target_iteration: int,
        limit: int | None = None,
    ) -> None:
        """Step every live run to ``min(target, max_outer_iter)``.

        ``limit`` overrides the config's outer-iteration cap — the
        dedup backend passes its extended budget so survivors can
        spend a merged clone's freed iterations.
        """
        cap = self.config.max_outer_iter if limit is None else limit
        target = min(target_iteration, cap)
        while True:
            active = [
                run for run in runs
                if not run.pruned and not run.finished
                and run.iteration < target
            ]
            if not active:
                return
            # lockstep invariant: the scheduler only ever advances the
            # whole live set to a common checkpoint, so live runs share
            # one iteration counter
            self._step_all(active)

    def current_objective(self, run: _BatchedRun) -> float:
        t0 = time.perf_counter()
        k = run.objective.n_bases
        value = run.objective.value(
            run.plan, run.alpha[:k], run.alpha[k:]
        )
        self.timings["objective_eval"] += time.perf_counter() - t0
        return value

    def outcome(self, run: _BatchedRun) -> RunOutcome:
        return RunOutcome(
            plan=run.plan,
            alpha=run.alpha,
            objective=self.current_objective(run),
            history=run.history,
            label=run.label,
            pruned=run.pruned,
            iterations=run.iteration,
            deduped=run.deduped,
            merged_into=run.merged_into,
        )

    # ------------------------------------------------------------------
    def _combined_stacks(self, runs: list[_BatchedRun], alphas: list[np.ndarray]):
        """Stacked ``(R, n, n)`` / ``(R, m, m)`` combined matrices.

        Each slice comes from the run's own ``JointObjective.combined``
        — the exact sequential accumulation the serial solver uses —
        and ``np.stack`` copies it bit-for-bit into the batch.
        """
        pairs = []
        for run, alpha in zip(runs, alphas):
            k = run.objective.n_bases
            pairs.append(run.objective.combined(alpha[:k], alpha[k:]))
        return (
            np.stack([d_s for d_s, _ in pairs]),
            np.stack([d_t for _, d_t in pairs]),
        )

    def _step_all(self, active: list[_BatchedRun]) -> None:  #: pinned
        """One outer iteration of Algorithm 1 for every live restart.

        Bitwise-pinned (``repro lint``): this is the lockstep update
        whose per-slice results must stay bit-for-bit equal to the
        serial ``fused-dense`` path.
        """
        cfg = self.config
        iteration = active[0].iteration
        step_start = time.perf_counter()

        plans = np.stack([run.plan for run in active])

        t0 = time.perf_counter()
        new_alphas = [run.alpha for run in active]
        learn_rows = [
            row for row, run in enumerate(active) if run.learn_weights
        ]
        if learn_rows:
            for _ in range(cfg.alpha_steps):
                d_s, d_t = self._combined_stacks(
                    [active[row] for row in learn_rows],
                    [new_alphas[row] for row in learn_rows],
                )
                learn_plans = plans[learn_rows]
                # the three transported matrices of the α-gradient,
                # batched over the learning restarts
                pt = np.matmul(learn_plans, d_t)
                transported_t = np.matmul(pt, learn_plans.swapaxes(1, 2))
                transported_s = np.matmul(
                    np.matmul(learn_plans.swapaxes(1, 2), d_s), learn_plans
                )
                for offset, row in enumerate(learn_rows):
                    run = active[row]
                    k = run.objective.n_bases
                    grad = self._alpha_gradient_from(
                        run,
                        new_alphas[row],
                        transported_t[offset],
                        transported_s[offset],
                    )
                    if cfg.tie_weights:
                        mean = 0.5 * (grad[:k] + grad[k:])
                        grad = np.concatenate([mean, mean])
                    new_alphas[row] = project_concatenated_simplices(
                        new_alphas[row] - cfg.structure_lr * grad, k
                    )
        t1 = time.perf_counter()
        self.timings["alpha_update"] += t1 - t0

        d_s, d_t = self._combined_stacks(active, new_alphas)
        sp = np.matmul(d_s, plans)
        fused_rows = [
            row for row, run in enumerate(active) if run.objective.fused
        ]
        if len(fused_rows) == len(active):
            # symmetric bases: −2(D_s π D_tᵀ + D_sᵀ π D_t) = −4 D_s π D_t
            plan_grads = -4.0 * np.matmul(sp, d_t)
        elif not fused_rows:
            spt = np.matmul(sp, d_t.swapaxes(1, 2))
            plan_grads = -2.0 * (
                spt
                + np.matmul(np.matmul(d_s.swapaxes(1, 2), plans), d_t)
            )
        else:
            # mixed batch (cross-pair runs disagreeing on basis
            # symmetry): each sub-stack gets its own formula on a
            # contiguous fancy-indexed copy — per-slice results are
            # identical to the unmixed branches above
            general_rows = [
                row for row, run in enumerate(active)
                if not run.objective.fused
            ]
            plan_grads = np.empty_like(plans)
            plan_grads[fused_rows] = -4.0 * np.matmul(
                sp[fused_rows], d_t[fused_rows]
            )
            spt = np.matmul(
                sp[general_rows], d_t[general_rows].swapaxes(1, 2)
            )
            plan_grads[general_rows] = -2.0 * (
                spt
                + np.matmul(
                    np.matmul(
                        d_s[general_rows].swapaxes(1, 2), plans[general_rows]
                    ),
                    d_t[general_rows],
                )
            )
        eta = eta_schedule(cfg, iteration)
        log_kernels = (
            np.log(np.maximum(plans, 1e-300)) - plan_grads / eta
        )
        projections = sinkhorn_log_kernel_fast_batched(
            log_kernels,
            self.mu,
            self.nu,
            max_iter=cfg.sinkhorn_iter,
            tol=cfg.sinkhorn_tol,
        )
        t2 = time.perf_counter()
        self.timings["pi_update"] += t2 - t1

        t3 = time.perf_counter()
        for row, run in enumerate(active):
            new_plan = projections[row].plan
            if not np.all(np.isfinite(new_plan)):
                raise ConvergenceError("SLOTAlign plan became non-finite")
            new_alpha = new_alphas[row]
            k = run.objective.n_bases
            alpha_delta = float(np.linalg.norm(new_alpha - run.alpha))
            plan_delta = float(np.linalg.norm(new_plan - run.plan))
            value = (
                run.objective.value(new_plan, new_alpha[:k], new_alpha[k:])
                if cfg.track_history
                else None
            )
            run.history.record(value, alpha_delta, plan_delta)
            run.alpha, run.plan = new_alpha, new_plan
            run.iteration += 1
            if alpha_delta < cfg.alpha_tol and plan_delta < cfg.plan_tol:
                run.history.converged = True
        self.timings["objective_eval"] += time.perf_counter() - t3

        # wall-clock attribution: lockstep work is shared, so each live
        # restart is charged an equal share of the iteration
        share = (time.perf_counter() - step_start) / len(active)
        for run in active:
            run.elapsed += share

    def _alpha_gradient_from(
        self,
        run: _BatchedRun,
        alpha: np.ndarray,
        transported_t: np.ndarray,
        transported_s: np.ndarray,
    ) -> np.ndarray:  #: pinned
        """Per-restart α-gradient assembly (Eq. 11 right-hand side).

        Mirrors ``JointObjective.alpha_gradient`` exactly, with the
        transported matrices supplied by the batched contractions.
        """
        objective = run.objective
        k = objective.n_bases
        beta_s, beta_t = alpha[:k], alpha[k:]
        cross_s = (objective.source_stack * transported_t).sum(axis=(1, 2))
        cross_t = (objective.target_stack * transported_s).sum(axis=(1, 2))
        grad_s = np.empty(k)
        grad_t = np.empty(k)
        for q in range(k):
            grad_s[q] = (
                2.0 / objective.n**2 * float(objective.gram_source[q] @ beta_s)
                - 2.0 * float(cross_s[q])
            )
            grad_t[q] = (
                2.0 / objective.m**2 * float(objective.gram_target[q] @ beta_t)
                - 2.0 * float(cross_t[q])
            )
        return np.concatenate([grad_s, grad_t])


class BatchedRestartBackend:
    """Portfolio backend running every restart as one stacked solve."""

    name = "batched-restart"
    kind = "dense"

    def solve(self, problem: PreparedProblem):
        # imported here, not at module top: backends.py imports this
        # module while registering the builtin backends
        from repro.engine.backends import ensure_classical_problem

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
            starts = build_starts(cfg, k, informative_init)
            runs = [
                _BatchedRun(label, objective, beta0, learn, plan0)
                for label, beta0, learn in starts
            ]
            lockstep = _LockstepPortfolio(cfg, mu, nu)
            checkpoints = prune_schedule(cfg) if len(runs) > 1 else []
            for checkpoint, margin in checkpoints:
                lockstep.advance(runs, checkpoint)
                contenders = {
                    run.label: lockstep.current_objective(run)
                    for run in runs
                    if not run.pruned
                }
                leader = min(contenders.values())
                for run in runs:
                    if (
                        not run.pruned
                        and not run.finished
                        and contenders[run.label] > leader + margin
                    ):
                        run.prune()
            lockstep.advance(runs, cfg.max_outer_iter)

            outcomes = [lockstep.outcome(run) for run in runs]
            best = select_best(outcomes)
        phase_timings = {
            "basis_build": problem.basis_seconds,
            "alpha_update": lockstep.timings["alpha_update"],
            "pi_update": lockstep.timings["pi_update"],
            "objective_eval": lockstep.timings["objective_eval"],
            "per_restart": {run.label: run.elapsed for run in runs},
        }
        return portfolio_result(
            self.name, outcomes, best, k, checkpoints, phase_timings,
            runtime=timer.elapsed,
        )


class BatchedDedupBackend(BatchedRestartBackend):
    """Lockstep portfolio with restart-trajectory dedup.

    The same stacked-tensor solve as ``batched-restart``, with the
    :func:`~repro.engine.restarts.dedup_schedule` checkpoints merged
    into the pruning event stream: restarts whose couplings have
    converged onto an earlier restart's (within ``dedup_tol`` relative
    Frobenius distance) are dropped from the stack and their remaining
    iteration budget is split among the survivors, which may then run
    past ``max_outer_iter``.  A merge changes which trajectories exist,
    so this is a separately-registered backend (the registry's
    never-silently-replace rule); when no merge fires it is bit-for-bit
    ``batched-restart`` — and, merge for merge, bit-for-bit the serial
    ``fused-dense-dedup`` portfolio.
    """

    name = "batched-dedup"
    kind = "dense"

    def __init__(
        self,
        dedup_tol: float = 1e-5,
        dedup_interval: int | None = None,
        dedup_tol_start: float = DEDUP_TOL_START,
    ):
        self.dedup_tol = dedup_tol
        self.dedup_interval = dedup_interval
        self.dedup_tol_start = dedup_tol_start

    def solve(self, problem: PreparedProblem):
        from repro.engine.backends import ensure_classical_problem

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
            starts = build_starts(cfg, k, informative_init)
            runs = [
                _BatchedRun(label, objective, beta0, learn, plan0)
                for label, beta0, learn in starts
            ]
            lockstep = _LockstepPortfolio(cfg, mu, nu)
            checkpoints = prune_schedule(cfg) if len(runs) > 1 else []
            dedup_points = (
                dedup_schedule(cfg, self.dedup_interval) if len(runs) > 1 else []
            )
            # dedup fires before pruning at a shared iteration, exactly
            # as in the serial run_portfolio_dedup event stream
            events = sorted(
                [(iteration, 0, None) for iteration in dedup_points]
                + [(iteration, 1, margin) for iteration, margin in checkpoints]
            )
            tolerance_schedule = [
                (
                    iteration,
                    dedup_tolerance(
                        iteration, cfg.max_outer_iter,
                        self.dedup_tol, self.dedup_tol_start,
                    ),
                )
                for iteration in dedup_points
            ]
            tolerance_at = dict(tolerance_schedule)
            merges: list[dict] = []
            for iteration, kind, margin in events:
                lockstep.advance(runs, iteration)
                if kind == 0:
                    merges.extend(
                        _apply_dedup(
                            runs, tolerance_at[iteration], cfg.max_outer_iter
                        )
                    )
                    continue
                contenders = {
                    run.label: lockstep.current_objective(run)
                    for run in runs
                    if not run.pruned
                }
                leader = min(contenders.values())
                for run in runs:
                    if (
                        not run.pruned
                        and not run.finished
                        and contenders[run.label] > leader + margin
                    ):
                        run.prune()
            freed = sum(merge["freed"] for merge in merges)
            survivors = [
                run for run in runs if not run.pruned and not run.finished
            ]
            extension = 0
            if freed and survivors:
                extension = min(freed // len(survivors), cfg.max_outer_iter)
            budget = cfg.max_outer_iter + extension
            lockstep.advance(runs, budget, limit=budget)

            outcomes = [lockstep.outcome(run) for run in runs]
            best = select_best(outcomes)
        phase_timings = {
            "basis_build": problem.basis_seconds,
            "alpha_update": lockstep.timings["alpha_update"],
            "pi_update": lockstep.timings["pi_update"],
            "objective_eval": lockstep.timings["objective_eval"],
            "per_restart": {run.label: run.elapsed for run in runs},
        }
        result = portfolio_result(
            self.name, outcomes, best, k, checkpoints, phase_timings,
            runtime=timer.elapsed,
        )
        result.extras["dedup"] = {
            "tolerance": self.dedup_tol,
            "tolerance_start": self.dedup_tol_start,
            "tolerance_schedule": tolerance_schedule,
            "checkpoints": dedup_points,
            "merges": merges,
            "freed_iterations": freed,
            "extension": extension,
        }
        return result
