"""Reduced-precision (float32) portfolio stepping over a workspace.

This module implements the solve stage of the float32 precision mode
(:mod:`repro.engine.precision`): the same restart portfolio policy as
the reference backends, with the per-iteration tensor contractions
executed in float32 against a preallocated
:class:`~repro.ot.workspace.Workspace`.

Precision split (what stays float64)
------------------------------------
* the **α iterate**, its simplex projection and the K-dimensional
  gradient assembly (Gram terms) — K-vectors cost nothing and the
  simplex geometry is tolerance-sensitive;
* the **combined matrices** ``D_s``/``D_t``, produced once per weight
  iterate by the pinned float64 :meth:`JointObjective.combined` cache
  and then *cast* into workspace buffers — so float32 runs see a
  rounded image of exactly the reference combination;
* every **decision value**: pruning comparisons, history values and
  the final selection re-evaluate the float64 objective on a float64
  cast of the float32 plan (:meth:`MixedRun.current_objective`).

Everything plan-shaped — the transported products, the plan gradient,
the log kernel and the Sinkhorn projection
(:func:`~repro.ot.sinkhorn.sinkhorn_log_kernel_fast_workspace`) — runs
in float32 through ``out=``-targeted calls into workspace buffers.

Equivalence contract
--------------------
``batched-f32`` advances the runs in lockstep and float32
``threaded-restart`` advances them one at a time, but both express
every contraction as *per-slice* GEMMs into stack buffers, so the two
schedules are bit-for-bit identical to **each other** (pinned by
``tests/test_precision.py``) while both differ from the float64
reference by rounding.  The lockstep object is safe for concurrent
``advance`` calls over *disjoint* run sets: all mutable scratch lives
in per-thread workspaces leased from the arena, which is how
``threaded-restart`` shares one instance across its pool.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.core.objective import JointObjective
from repro.engine.precision import FLOAT32, SolverPrecision, ensure_precision
from repro.engine.restarts import (
    Lockstep,
    RestartRun,
    RunOutcome,
    eta_schedule,
    solve_portfolio,
)
from repro.exceptions import ConvergenceError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import _flush_constants, sinkhorn_log_kernel_fast_workspace
from repro.ot.workspace import WorkspaceArena


class MixedRun(RestartRun):
    """One restart stepped in reduced precision.

    The reference run state with the plan iterate held in a per-run
    float32 buffer; stepping is delegated to the shared
    :class:`_MixedLockstep`, and objective reads and outcomes cast the
    plan back to float64.
    """

    def __init__(
        self,
        lockstep: "_MixedLockstep",
        beta0: np.ndarray,
        learn_weights: bool,
        plan0: np.ndarray,
        label: str,
    ):
        super().__init__(
            lockstep.objective, lockstep.config, beta0, learn_weights,
            plan0, lockstep.mu, lockstep.nu, label,
        )
        self._lockstep = lockstep
        self.plan = np.array(plan0, dtype=lockstep.dtype)

    # ------------------------------------------------------------------
    def step_until(self, target_iteration: int) -> None:
        self._lockstep.advance([self], target_iteration)

    def current_objective(self) -> float:
        """Float64 objective at the float32 iterate.

        Decision values (pruning, selection) are always evaluated in
        float64 — the fresh cast also sidesteps the objective's
        identity-keyed product memo, which must never see the mutable
        per-run buffer.
        """
        t0 = time.perf_counter()
        plan64 = self.plan.astype(np.float64)
        value = self.objective.value(plan64, self.alpha[:self.k], self.alpha[self.k:])
        self.timings["objective_eval"] += time.perf_counter() - t0
        return value

    def outcome(self) -> RunOutcome:
        outcome = super().outcome()
        outcome.plan = self.plan.astype(np.float64)
        return outcome


class _MixedLockstep(Lockstep):
    """Steps stacks of one pair's :class:`MixedRun` against leased workspaces.

    One instance per solve.  Holds no per-step mutable state of its
    own: every scratch array comes from the arena's per-thread
    workspace, so concurrent ``advance`` calls over disjoint run sets
    (the threaded strategy) cannot alias buffers.
    """

    def __init__(
        self,
        objective: JointObjective,
        config: SLOTAlignConfig,
        mu: np.ndarray,
        nu: np.ndarray,
        capacity: int,
        precision: str | SolverPrecision = FLOAT32,
        arena: WorkspaceArena | None = None,
    ):
        self.objective = objective
        self.config = config
        self.precision = ensure_precision(precision)
        self.dtype = self.precision.dtype
        self.mu = np.asarray(mu, dtype=np.float64)
        self.nu = np.asarray(nu, dtype=np.float64)
        self.n = self.mu.shape[0]
        self.m = self.nu.shape[0]
        self.capacity = max(1, int(capacity))
        self.arena = arena if arena is not None else WorkspaceArena()
        self.sinkhorn_tol = self.precision.effective_sinkhorn_tol(
            config.sinkhorn_tol
        )
        _, self.log_tiny = _flush_constants(self.dtype)

    # ------------------------------------------------------------------
    def _step_all(self, active) -> None:  #: pinned
        """One outer iteration for every run in ``active``.

        Every contraction is a per-slice GEMM/ufunc into a workspace
        stack buffer, so a batch step and the equivalent sequence of
        single-run steps issue identical instruction sequences — the
        basis of the ``batched-f32`` ↔ float32 ``threaded-restart``
        bitwise contract (pinned by ``repro lint``; divergent variants
        register a new backend name).
        """
        cfg = self.config
        objective = self.objective
        k = objective.n_bases
        r = len(active)
        ws = self.arena.lease(self.capacity, self.n, self.m, self.dtype)
        ws.set_marginals(self.mu, self.nu)
        t0 = time.perf_counter()
        plans = ws.plans[:r]
        for i, run in enumerate(active):
            np.copyto(plans[i], run.plan)
        new_alphas = [run.alpha for run in active]
        learn = [i for i, run in enumerate(active) if run.learn_weights]
        n_learn = len(learn)
        # the build_starts order keeps the frozen restarts last, so the
        # learned rows are normally a contiguous prefix and the four
        # transported products batch into stacked GEMMs; per-slice GEMMs
        # into the same buffers are the bitwise-equal fallback
        learn_prefix = learn == list(range(n_learn))
        for _ in range(cfg.alpha_steps if learn else 0):
            for i in learn:
                alpha = new_alphas[i]
                d_s, d_t = objective.combined(alpha[:k], alpha[k:])
                np.copyto(ws.d_s[i], d_s, casting="same_kind")
                np.copyto(ws.d_t[i], d_t, casting="same_kind")
            if learn_prefix:
                lp = plans[:n_learn]
                lp_t = lp.swapaxes(1, 2)
                np.matmul(lp, ws.d_t[:n_learn], out=ws.pt[:n_learn])
                np.matmul(ws.pt[:n_learn], lp_t, out=ws.transported_t[:n_learn])
                np.matmul(lp_t, ws.d_s[:n_learn], out=ws.tp[:n_learn])
                np.matmul(ws.tp[:n_learn], lp, out=ws.transported_s[:n_learn])
            else:
                for i in learn:
                    np.matmul(plans[i], ws.d_t[i], out=ws.pt[i])
                    np.matmul(ws.pt[i], plans[i].T, out=ws.transported_t[i])
                    np.matmul(plans[i].T, ws.d_s[i], out=ws.tp[i])
                    np.matmul(ws.tp[i], plans[i], out=ws.transported_s[i])
            for i in learn:
                alpha = new_alphas[i]
                stack_s = ws.cast("source_stack", objective.source_stack)
                stack_t = ws.cast("target_stack", objective.target_stack)
                cross_s = np.einsum(
                    "qij,ij->q",
                    stack_s,
                    ws.transported_t[i],
                    optimize=ws.einsum_path("qij,ij->q", stack_s, ws.transported_t[i]),
                ).astype(np.float64)
                cross_t = np.einsum(
                    "qij,ij->q",
                    stack_t,
                    ws.transported_s[i],
                    optimize=ws.einsum_path("qij,ij->q", stack_t, ws.transported_s[i]),
                ).astype(np.float64)
                grad_s = (
                    2.0 / objective.n**2 * (objective.gram_source @ alpha[:k])
                    - 2.0 * cross_s
                )
                grad_t = (
                    2.0 / objective.m**2 * (objective.gram_target @ alpha[k:])
                    - 2.0 * cross_t
                )
                grad = np.concatenate([grad_s, grad_t])
                if cfg.tie_weights:
                    mean = 0.5 * (grad[:k] + grad[k:])
                    grad = np.concatenate([mean, mean])
                new_alphas[i] = project_concatenated_simplices(
                    alpha - cfg.structure_lr * grad, k
                )
        t1 = time.perf_counter()
        for i in range(r):
            alpha = new_alphas[i]
            d_s, d_t = objective.combined(alpha[:k], alpha[k:])
            np.copyto(ws.d_s[i], d_s, casting="same_kind")
            np.copyto(ws.d_t[i], d_t, casting="same_kind")
        etas = np.array(
            [eta_schedule(cfg, run.iteration) for run in active], dtype=self.dtype
        ).reshape(r, 1, 1)
        if objective.fused:
            # symmetric bases: ∂F/∂π = −4 D_s π D_t, whole stack at once
            np.matmul(ws.d_s[:r], plans, out=ws.sp[:r])
            np.matmul(ws.sp[:r], ws.d_t[:r], out=ws.grad[:r])
            np.multiply(ws.grad[:r], -4.0, out=ws.grad[:r])
        else:
            # general: −2 (D_s π D_tᵀ + D_sᵀ π D_t)
            np.matmul(ws.d_s[:r], plans, out=ws.sp[:r])
            np.matmul(ws.sp[:r], ws.d_t[:r].swapaxes(1, 2), out=ws.grad[:r])
            np.matmul(ws.d_s[:r].swapaxes(1, 2), plans, out=ws.pt[:r])
            np.matmul(ws.pt[:r], ws.d_t[:r], out=ws.sp[:r])
            np.add(ws.grad[:r], ws.sp[:r], out=ws.grad[:r])
            np.multiply(ws.grad[:r], -2.0, out=ws.grad[:r])
        np.divide(ws.grad[:r], etas, out=ws.grad[:r])
        log_kernel = ws.log_kernel[:r]
        np.maximum(plans, self.log_tiny, out=log_kernel)
        np.log(log_kernel, out=log_kernel)
        np.subtract(log_kernel, ws.grad[:r], out=log_kernel)
        sinkhorn_log_kernel_fast_workspace(
            ws, r, max_iter=cfg.sinkhorn_iter, tol=self.sinkhorn_tol
        )
        new_plans = ws.new_plans[:r]
        if not np.all(np.isfinite(new_plans)):
            raise ConvergenceError("SLOTAlign plan became non-finite")
        t2 = time.perf_counter()
        for i, run in enumerate(active):
            alpha_delta = float(np.linalg.norm(new_alphas[i] - run.alpha))
            np.subtract(new_plans[i], plans[i], out=ws.grad[i])
            plan_delta = float(np.linalg.norm(ws.grad[i]))
            value = None
            if cfg.track_history:
                plan64 = new_plans[i].astype(np.float64)
                value = objective.value(
                    plan64, new_alphas[i][:k], new_alphas[i][k:]
                )
            run.history.record(value, alpha_delta, plan_delta)
            run.alpha = new_alphas[i]
            np.copyto(run.plan, new_plans[i])
            run.iteration += 1
            if alpha_delta < cfg.alpha_tol and plan_delta < cfg.plan_tol:
                run.history.converged = True
        t3 = time.perf_counter()
        alpha_share = (t1 - t0) / r
        pi_share = (t2 - t1) / r
        eval_share = (t3 - t2) / r
        for run in active:
            run.timings["alpha_update"] += alpha_share
            run.timings["pi_update"] += pi_share
            run.timings["objective_eval"] += eval_share
            run.elapsed += alpha_share + pi_share + eval_share


class BatchedF32Backend:
    """Lockstep-batched float32 restart portfolio (new name, opt-in).

    Same starts, same checkpoints, same scheduler as ``fused-dense``;
    the per-iteration contractions run in float32 against a
    preallocated workspace and all decision values are re-evaluated in
    float64.  Registered separately per the never-silently-replace rule
    — results differ from the reference by rounding.  Bitwise-equal to
    float32 ``threaded-restart`` at any width (see the module
    docstring).
    """

    name = "batched-f32"
    kind = "dense"

    def __init__(self, arena: WorkspaceArena | None = None):
        self.arena = arena

    def solve(self, problem):
        from repro.engine.backends import ensure_classical_problem

        cfg = problem.config
        ensure_classical_problem(problem, self.name)

        def setup(objective, mu, nu, plan0, starts):
            lockstep = _MixedLockstep(
                objective, cfg, mu, nu, capacity=len(starts),
                precision=FLOAT32, arena=self.arena,
            )
            runs = [
                MixedRun(lockstep, beta0, learn, plan0, label)
                for label, beta0, learn in starts
            ]
            return runs, lockstep.advance

        result = solve_portfolio(self.name, problem, setup)
        result.extras["precision"] = FLOAT32.name
        return result


__all__ = [
    "BatchedF32Backend",
    "MixedRun",
    "_MixedLockstep",
]
