"""Restart-portfolio machinery shared by the solver backends.

The multi-start portfolio (uniform + vertex restarts, successive-
halving pruning, η annealing) is solver policy, not solver mechanics:
the serial ``fused-dense`` backend and the lockstep ``batched-restart``
backend run the *same* portfolio — same starts, same schedule, same
pruning decisions — and differ only in how the per-iteration tensor
contractions are dispatched.  Everything policy-level therefore lives
here, once.

:class:`RestartRun` is the reference serial implementation of one
restart's stepping state.  Its per-iteration body is a faithful
transcription of the original single-shot loop: as long as a run is
advanced to the full budget, its iterate sequence (and therefore its
final plan) is bit-for-bit what the unscheduled solver produced.
``step_until`` lets the portfolio scheduler advance restarts
checkpoint by checkpoint.  :func:`run_portfolio` is that scheduler, the
one every dense backend runs; the backends differ only in the
``advance`` callable they hand it.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.core.convergence import IterateHistory
from repro.core.objective import JointObjective
from repro.core.result import AlignmentResult
from repro.engine.planning import PreparedProblem
from repro.exceptions import ConvergenceError, GraphError
from repro.ot.simplex import project_concatenated_simplices
from repro.ot.sinkhorn import sinkhorn_log_kernel_fast
from repro.utils.timer import Timer


@dataclass
class RunOutcome:
    """One restart's final iterates."""

    plan: np.ndarray
    alpha: np.ndarray
    objective: float
    history: IterateHistory
    label: str
    pruned: bool = False
    iterations: int = 0


def eta_schedule(config: SLOTAlignConfig, iteration: int) -> float:
    """Annealed KL-proximal coefficient for one outer iteration."""
    if not config.anneal or config.eta_start <= config.sinkhorn_lr:
        return config.sinkhorn_lr
    horizon = max(1, int(config.anneal_fraction * config.max_outer_iter))
    if iteration >= horizon:
        return config.sinkhorn_lr
    decay = (config.sinkhorn_lr / config.eta_start) ** (1.0 / horizon)
    return config.eta_start * decay**iteration


def vertex_views(config: SLOTAlignConfig, k: int) -> list[tuple[str, int]]:
    """(label, basis index) of the single-view restarts to try."""
    index = 0
    vertices = []
    if "edge" in config.include_views:
        vertices.append(("edge", index))
        index += 1
    if "node" in config.include_views and index < k:
        vertices.append(("node", index))
    return vertices


def build_starts(
    config: SLOTAlignConfig, k: int, informative_init: bool
) -> list[tuple[str, np.ndarray, bool]]:
    """The portfolio's ``(label, β₀, learn_weights)`` start list.

    Uniform mixture first; with the portfolio enabled (and no
    informative initial plan) vertex restarts for the two first-order
    views follow — a learned run per vertex plus a frozen node-view
    run, the feature-only fallback when structure is hopeless.
    """
    uniform_beta = np.full(k, 1.0 / k)
    first_label, first_beta = "uniform", uniform_beta
    if config.single_start_view != "uniform" and not config.multi_start:
        # committed single start: begin at the requested view's vertex
        # of the simplex instead of the uniform mixture
        for label, view_index in vertex_views(config, k):
            if label == config.single_start_view:
                vertex = np.zeros(k)
                vertex[view_index] = 1.0
                first_label, first_beta = label, vertex
                break
        else:
            raise GraphError(
                f"single_start_view {config.single_start_view!r} has no "
                "matching basis for this graph pair"
            )
    starts: list[tuple[str, np.ndarray, bool]] = [
        (first_label, first_beta, config.learn_weights)
    ]
    if config.multi_start and not informative_init and k > 1:
        for label, view_index in vertex_views(config, k):
            vertex = np.zeros(k)
            vertex[view_index] = 1.0
            starts.append((label, vertex, config.learn_weights))
            if label == "node":
                starts.append((f"{label}-frozen", vertex, False))
    return starts


def prune_schedule(config: SLOTAlignConfig) -> list[tuple[int, float]]:
    """Successive-halving checkpoints ``(iteration, margin)``.

    Mid-annealing objective values are unusable for ranking: the
    exploration phase deliberately keeps iterates smooth, so a
    restart's value can lag arbitrarily while η is large and the
    ordering routinely inverts as η decays.  With annealing enabled
    the only checkpoint therefore fires ``portfolio_prune_iter``
    iterations after the annealing horizon, with the tight refine
    margin.  Without annealing the ranking is meaningful early, so a
    generous-margin checkpoint fires at ``portfolio_prune_iter`` and a
    tighter one at three times it.
    """
    first = config.portfolio_prune_iter
    if first <= 0 or first >= config.max_outer_iter:
        return []
    if config.anneal and config.eta_start > config.sinkhorn_lr:
        horizon = max(1, int(config.anneal_fraction * config.max_outer_iter))
        checkpoint = horizon + first
        if checkpoint < config.max_outer_iter:
            return [(checkpoint, config.portfolio_refine_margin)]
        return []
    schedule = [(first, config.portfolio_prune_margin)]
    second = 3 * first
    if first < second < config.max_outer_iter:
        schedule.append((second, config.portfolio_refine_margin))
    return schedule


class RestartRun:
    """Stepping state of one restart of the alternating scheme."""

    def __init__(
        self,
        objective: JointObjective,
        config: SLOTAlignConfig,
        beta0: np.ndarray,
        learn_weights: bool,
        plan0: np.ndarray,
        mu: np.ndarray,
        nu: np.ndarray,
        label: str,
    ):
        self.objective = objective
        self.config = config
        self.learn_weights = learn_weights
        self.label = label
        self.mu = mu
        self.nu = nu
        self.k = objective.n_bases
        self.alpha = np.concatenate([beta0, beta0])
        self.plan = plan0.copy()
        self.history = IterateHistory()
        self.iteration = 0
        self.pruned = False
        self.pruned_at: int | None = None
        self.elapsed = 0.0
        self.timings = {"alpha_update": 0.0, "pi_update": 0.0, "objective_eval": 0.0}

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return (
            self.history.converged
            or self.iteration >= self.config.max_outer_iter
        )

    @property
    def active(self) -> bool:
        return not self.pruned and not self.finished

    def step_until(self, target_iteration: int) -> None:
        """Advance to ``min(target, max_outer_iter)`` or convergence."""
        target = min(target_iteration, self.config.max_outer_iter)
        start = time.perf_counter()
        while self.iteration < target and not self.history.converged:
            self._step_once()
        self.elapsed += time.perf_counter() - start

    def current_objective(self) -> float:
        """Objective at the current iterate (pure read, cache-friendly)."""
        t0 = time.perf_counter()
        value = self.objective.value(self.plan, self.alpha[:self.k], self.alpha[self.k:])
        self.timings["objective_eval"] += time.perf_counter() - t0
        return value

    def prune(self) -> None:
        self.pruned = True
        self.pruned_at = self.iteration

    def outcome(self) -> RunOutcome:
        return RunOutcome(
            plan=self.plan,
            alpha=self.alpha,
            objective=self.current_objective(),
            history=self.history,
            label=self.label,
            pruned=self.pruned,
            iterations=self.iteration,
        )

    # ------------------------------------------------------------------
    def _step_once(self) -> None:
        """One outer iteration of Algorithm 1 (Eq. 11 then Eq. 12)."""
        cfg = self.config
        objective = self.objective
        k = self.k
        alpha, plan = self.alpha, self.plan

        t0 = time.perf_counter()
        new_alpha = alpha
        if self.learn_weights:
            for _ in range(cfg.alpha_steps):
                grad = objective.alpha_gradient(
                    plan, new_alpha[:k], new_alpha[k:]
                )
                if cfg.tie_weights:
                    # shared weights: both halves take the averaged
                    # gradient, so beta_s == beta_t is an invariant of
                    # the iteration (the halves start equal)
                    mean = 0.5 * (grad[:k] + grad[k:])
                    grad = np.concatenate([mean, mean])
                new_alpha = project_concatenated_simplices(
                    new_alpha - cfg.structure_lr * grad, k
                )
        t1 = time.perf_counter()
        self.timings["alpha_update"] += t1 - t0

        plan_grad = objective.plan_gradient(plan, new_alpha[:k], new_alpha[k:])
        # KL-proximal step (Eq. 12): minimising
        # <grad, pi> + eta * KL(pi || pi_k) yields the kernel
        # pi_k * exp(-grad / eta), projected onto Pi(mu, nu)
        eta = eta_schedule(cfg, self.iteration)
        log_kernel = (
            np.log(np.maximum(plan, 1e-300)) - plan_grad / eta
        )
        new_plan = self._project_plan(log_kernel, eta)
        if not np.all(np.isfinite(new_plan)):
            raise ConvergenceError("SLOTAlign plan became non-finite")
        t2 = time.perf_counter()
        self.timings["pi_update"] += t2 - t1

        alpha_delta = float(np.linalg.norm(new_alpha - alpha))
        plan_delta = float(np.linalg.norm(new_plan - plan))
        value = (
            objective.value(new_plan, new_alpha[:k], new_alpha[k:])
            if cfg.track_history
            else None
        )
        self.timings["objective_eval"] += time.perf_counter() - t2
        self.history.record(value, alpha_delta, plan_delta)
        self.alpha, self.plan = new_alpha, new_plan
        self.iteration += 1
        if alpha_delta < cfg.alpha_tol and plan_delta < cfg.plan_tol:
            self.history.converged = True

    def _project_plan(self, log_kernel: np.ndarray, eta: float) -> np.ndarray:
        """Project ``exp(log_kernel)`` onto the plan's feasible set.

        The seam the partial solve mode reroutes: the reference run
        projects onto the balanced polytope ``Π(μ, ν)`` exactly as the
        pre-seam solver did; the partial runs add a log-domain prior
        and/or swap in the unbalanced scaling (``η`` — the proximal
        coefficient the kernel was built with — only matters there).
        """
        result = sinkhorn_log_kernel_fast(
            log_kernel,
            self.mu,
            self.nu,
            max_iter=self.config.sinkhorn_iter,
            tol=self.config.sinkhorn_tol,
        )
        return result.plan


def step_serially(runs: list[RestartRun], target: int) -> None:
    """Advance each run to ``target`` in turn (the reference schedule)."""
    for run in runs:
        run.step_until(target)


class Lockstep:
    """Advances a set of runs together, one outer iteration at a time.

    Subclasses implement ``_step_all(active)``: one outer iteration for
    every run in ``active``.
    """

    def advance(self, runs: list[RestartRun], target: int) -> None:
        """Step every live run to ``target`` (or its convergence)."""
        while True:
            active = [
                run for run in runs if run.active and run.iteration < target
            ]
            if not active:
                return
            # lockstep invariant: the scheduler only ever advances the
            # whole live set to a common checkpoint, so live runs share
            # one iteration counter
            self._step_all(active)


def run_portfolio(
    runs: list[RestartRun],
    config: SLOTAlignConfig,
    advance: Callable[[list[RestartRun], int], None],
) -> tuple[list[RunOutcome], RunOutcome, list[tuple[int, float]]]:
    """The checkpoint/prune scheduler every dense backend runs.

    ``advance(live_runs, target)`` steps the live runs to ``target``
    iterations (or their convergence); the backends differ only in that
    callable — :func:`step_serially`, :meth:`Lockstep.advance` or a
    thread pool.  At each successive-halving checkpoint the restarts
    whose objective trails the leader's by more than the margin are
    pruned; the survivors then run to the full budget.  Pruning reads
    the objectives on this thread, so the decisions never depend on
    the schedule.
    """
    checkpoints = prune_schedule(config) if len(runs) > 1 else []
    for checkpoint, margin in checkpoints:
        advance([run for run in runs if run.active], checkpoint)
        contenders = {
            run.label: run.current_objective()
            for run in runs
            if not run.pruned
        }
        leader = min(contenders.values())
        for run in runs:
            if run.active and contenders[run.label] > leader + margin:
                run.prune()
    advance([run for run in runs if run.active], config.max_outer_iter)
    outcomes = [run.outcome() for run in runs]
    return outcomes, select_best(outcomes), checkpoints


def solve_portfolio(
    backend: str, problem: PreparedProblem, setup: Callable
) -> AlignmentResult:
    """Solve ``problem`` with the restart portfolio of one dense backend.

    The shared solve body: the objective over the problem's bases, the
    marginals, the initial coupling and the start list, handed to
    ``setup(objective, mu, nu, plan0, starts)``, which returns the
    backend's runs and its ``advance`` callable for :func:`run_portfolio`.
    """
    cfg = problem.config
    with Timer() as timer:
        source_bases, target_bases = problem.bases
        objective = JointObjective(
            source_bases, target_bases, fused=cfg.fused_contractions
        )
        mu, nu = problem.marginals()
        plan0, informative_init = problem.initial_coupling(mu, nu)
        starts = build_starts(cfg, objective.n_bases, informative_init)
        runs, advance = setup(objective, mu, nu, plan0, starts)
        outcomes, best, checkpoints = run_portfolio(runs, cfg, advance)
    return portfolio_result(
        backend, outcomes, best, objective.n_bases, checkpoints,
        portfolio_phase_timings(runs, problem.basis_seconds),
        runtime=timer.elapsed,
    )


def portfolio_phase_timings(runs: list[RestartRun], basis_seconds: float) -> dict:
    """The per-phase timing dict every portfolio backend emits."""
    return {
        "basis_build": basis_seconds,
        "alpha_update": sum(r.timings["alpha_update"] for r in runs),
        "pi_update": sum(r.timings["pi_update"] for r in runs),
        "objective_eval": sum(r.timings["objective_eval"] for r in runs),
        "per_restart": {run.label: run.elapsed for run in runs},
    }


def select_best(outcomes: list[RunOutcome]) -> RunOutcome:
    """The unpruned restart with the lowest objective value."""
    survivors = [out for out in outcomes if not out.pruned]
    return min(survivors, key=lambda run: run.objective)


def portfolio_result(
    backend: str,
    outcomes: list[RunOutcome],
    best: RunOutcome,
    k: int,
    checkpoints: list[tuple[int, float]],
    phase_timings: dict,
    runtime: float,
) -> AlignmentResult:
    """Assemble the :class:`AlignmentResult` every dense backend shares."""
    return AlignmentResult(
        plan=best.plan,
        runtime=runtime,
        method="SLOTAlign",
        extras={
            "beta_source": best.alpha[:k].copy(),
            "beta_target": best.alpha[k:].copy(),
            "history": best.history,
            "n_bases": k,
            "objective": best.objective,
            "selected_start": best.label,
            "backend": backend,
            "start_objectives": {
                run.label: run.objective for run in outcomes
            },
            "portfolio": {
                "checkpoints": [list(cp) for cp in checkpoints],
                "pruned": {
                    run.label: run.iterations
                    for run in outcomes
                    if run.pruned
                },
                "iterations": {
                    run.label: run.iterations for run in outcomes
                },
            },
            "phase_timings": phase_timings,
        },
    )
