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
The checkpoint/prune policy is the shared
:func:`~repro.engine.restarts.run_portfolio`; this module only
supplies the lockstep ``advance``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.objective import JointObjective
from repro.engine.planning import PreparedProblem
from repro.engine.restarts import (
    Lockstep,
    RestartRun,
    eta_schedule,
    solve_portfolio,
)
from repro.exceptions import ConvergenceError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast_batched


class _BatchedRun(RestartRun):
    """A reference restart advanced by :class:`_LockstepPortfolio`.

    Same state, objective reads and outcome as :class:`RestartRun`; the
    lockstep steps it in place of ``step_until``.
    """


class _LockstepPortfolio(Lockstep):
    """Advances one pair's restarts iteration-by-iteration, batched.

    Every run shares the lockstep's objective, so the stacked
    contractions see one ``(n, m)`` plan shape and one basis symmetry.
    Each run is charged an equal share of every step's phase timings.
    """

    def __init__(self, objective: JointObjective, config, mu, nu):
        self.objective = objective
        self.config = config
        self.mu = mu
        self.nu = nu

    # ------------------------------------------------------------------
    def _combined_stacks(self, alphas: list[np.ndarray]):
        """Stacked ``(R, n, n)`` / ``(R, m, m)`` combined matrices.

        Each slice comes from ``JointObjective.combined`` — the exact
        sequential accumulation the serial solver uses — and
        ``np.stack`` copies it bit-for-bit into the batch.
        """
        k = self.objective.n_bases
        pairs = [
            self.objective.combined(alpha[:k], alpha[k:]) for alpha in alphas
        ]
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
        objective = self.objective
        k = objective.n_bases
        iteration = active[0].iteration

        t0 = time.perf_counter()
        plans = np.stack([run.plan for run in active])
        new_alphas = [run.alpha for run in active]
        learn_rows = [
            row for row, run in enumerate(active) if run.learn_weights
        ]
        if learn_rows:
            for _ in range(cfg.alpha_steps):
                d_s, d_t = self._combined_stacks(
                    [new_alphas[row] for row in learn_rows]
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
                    grad = self._alpha_gradient_from(
                        active[row],
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

        d_s, d_t = self._combined_stacks(new_alphas)
        sp = np.matmul(d_s, plans)
        if objective.fused:
            # symmetric bases: −2(D_s π D_tᵀ + D_sᵀ π D_t) = −4 D_s π D_t
            plan_grads = -4.0 * np.matmul(sp, d_t)
        else:
            spt = np.matmul(sp, d_t.swapaxes(1, 2))
            plan_grads = -2.0 * (
                spt
                + np.matmul(np.matmul(d_s.swapaxes(1, 2), plans), d_t)
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

        for row, run in enumerate(active):
            new_plan = projections[row].plan
            if not np.all(np.isfinite(new_plan)):
                raise ConvergenceError("SLOTAlign plan became non-finite")
            new_alpha = new_alphas[row]
            alpha_delta = float(np.linalg.norm(new_alpha - run.alpha))
            plan_delta = float(np.linalg.norm(new_plan - run.plan))
            value = (
                objective.value(new_plan, new_alpha[:k], new_alpha[k:])
                if cfg.track_history
                else None
            )
            run.history.record(value, alpha_delta, plan_delta)
            run.alpha, run.plan = new_alpha, new_plan
            run.iteration += 1
            if alpha_delta < cfg.alpha_tol and plan_delta < cfg.plan_tol:
                run.history.converged = True
        t3 = time.perf_counter()

        # wall-clock attribution: lockstep work is shared, so each live
        # restart is charged an equal share of the iteration
        r = len(active)
        alpha_share = (t1 - t0) / r
        pi_share = (t2 - t1) / r
        eval_share = (t3 - t2) / r
        for run in active:
            run.timings["alpha_update"] += alpha_share
            run.timings["pi_update"] += pi_share
            run.timings["objective_eval"] += eval_share
            run.elapsed += alpha_share + pi_share + eval_share

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

        def setup(objective, mu, nu, plan0, starts):
            lockstep = _LockstepPortfolio(objective, cfg, mu, nu)
            runs = [
                _BatchedRun(objective, cfg, beta0, learn, plan0, mu, nu, label)
                for label, beta0, learn in starts
            ]
            return runs, lockstep.advance

        return solve_portfolio(self.name, problem, setup)
