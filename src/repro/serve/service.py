"""The in-process alignment service: queue, workers, shared plan cache.

:class:`AlignmentService` turns the PR-5 engine into a long-lived
**alignment-as-a-service** endpoint: clients :meth:`~AlignmentService.submit`
graph pairs and get back :class:`~repro.serve.jobs.Job` handles they
can wait on, while a pool of worker threads drains a FIFO
:class:`~repro.serve.jobs.JobQueue`.  Three properties do
the heavy lifting:

* **shared plan cache** — all jobs plan through one
  :class:`~repro.engine.planning.PlanCache` (the process-wide shared
  cache by default), so repeated or content-equal pairs pay kernel
  construction once, across jobs and across workers (the cache's
  single-flight discipline absorbs concurrent misses);
* **one solve per distinct request** — a solve is a deterministic
  function of its :func:`~repro.engine.planning.solve_key` (both
  graphs' contents, the full config, the initial coupling, the routed
  backend), so jobs with equal keys share one solve through the same
  cache: the first becomes its owner, concurrent ones wait for it,
  later ones reuse the retained result.  Each job still gets its own
  result copy (around the shared, read-only plan), decode and
  metrics.  Each worker solves with the configured backend under the
  process-wide one-thread BLAS policy (:mod:`repro.engine.blas`), so
  W workers keep W cores busy and every served plan is bit-for-bit a
  direct :class:`~repro.engine.AlignmentEngine` run.  Without a cache
  (``cache=None``) every job runs its own solve;
* **admission control** — every submit is reviewed by an
  :class:`~repro.serve.budget.AdmissionPolicy`; over-budget requests
  complete immediately as ``REJECTED`` with a reason instead of
  entering the queue.

The service is deliberately in-process (no sockets): the CLI's
``repro serve`` subcommand and the serving benchmark drive it with
synthetic traffic, and a network front door would be a thin shim over
exactly this API.
"""

from __future__ import annotations

import threading
import time
import traceback

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.engine.backends import DEFAULT_BACKEND, get_backend
from repro.engine.blas import blas_threads
from repro.engine.precision import (
    DEFAULT_PRECISION,
    backend_for_precision,
    ensure_precision,
)
from repro.engine.decode import ensure_decoder, get_decoder
from repro.engine.evaluate import evaluate_alignment
from repro.engine.pipeline import EngineRun
from repro.engine.planning import (
    PlanCache,
    prepare_problem,
    shared_plan_cache,
    solve_key,
)
from repro.graphs.graph import AttributedGraph
from repro.serve.budget import AdmissionPolicy
from repro.serve.jobs import Job, JobQueue, JobState, QueueClosed

_SHARED = object()
"""Sentinel: "use the process-wide shared plan cache"."""


def _percentile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class AlignmentService:
    """Long-lived alignment job server over the unified engine.

    Parameters
    ----------
    config:
        Default :class:`SLOTAlignConfig` for jobs submitted without an
        explicit one.
    backend:
        Solver backend every job is solved with.
    cache:
        :class:`PlanCache` shared by every job, for structure bases and
        for solved results.  Defaults to the process-wide shared cache;
        pass ``None`` to disable caching (every job then runs its own
        solve).
    policy:
        :class:`AdmissionPolicy` reviewed at submit time.
    workers:
        Worker-thread count.  One worker keeps completion strictly
        FIFO; more trade ordering for parallel throughput.
    max_batch:
        Accepted and ignored: every job is solved on its own.  Kept so
        callers written for the batching service keep working.
    evaluate_ks:
        ``k`` values for Hits@k when a job carries ground truth.
    decoder:
        Default decoder applied to every solved plan (jobs may
        override per-submit).  ``None`` skips the decode stage and
        scores the plan posterior directly — the pre-decode service,
        bit for bit.
    precision:
        Default solve-stage working precision for jobs submitted
        without an explicit one (``"float64"`` / ``"float32"``).
    """

    def __init__(
        self,
        config: SLOTAlignConfig | None = None,
        backend: str = DEFAULT_BACKEND,
        cache=_SHARED,
        policy: AdmissionPolicy | None = None,
        workers: int = 1,
        max_batch: int | None = None,
        evaluate_ks=(1, 5, 10, 30),
        decoder: str | None = None,
        precision: str = DEFAULT_PRECISION,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.config = config or SLOTAlignConfig()
        self.backend = backend
        self.cache: PlanCache | None = (
            shared_plan_cache() if cache is _SHARED else cache
        )
        self.policy = policy or AdmissionPolicy()
        self.workers = workers
        self.evaluate_ks = tuple(evaluate_ks)
        self.decoder = ensure_decoder(decoder) if decoder is not None else None
        self.precision = ensure_precision(precision).name
        # fail a bad backend/precision combination at construction, not
        # in a worker thread mid-solve
        backend_for_precision(backend, self.precision)
        self._queue = JobQueue()
        self._decoder_lock = threading.Lock()
        # decoder instances are stateless but construction goes through
        # the registry; memoised per name so the per-job decode stage
        # does one dict hit instead of a registry lookup
        self._decoders: dict = {}  #: guarded-by: _decoder_lock
        self._lifecycle_lock = threading.Lock()
        self._threads: list[threading.Thread] = []  #: guarded-by: _lifecycle_lock
        self._stats_lock = threading.Lock()
        self._counters = {  #: guarded-by: _stats_lock
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            # solves this service ran, and jobs served by another
            # job's solve instead
            "solves": 0,
            "shared_solves": 0,
        }
        self._latencies: list[float] = []  #: guarded-by: _stats_lock

    # ------------------------------------------------------------------
    # lifecycle
    def start(self) -> "AlignmentService":
        """Start the worker pool (idempotent, and safe to race: two
        threads calling ``start`` concurrently spawn one pool)."""
        with self._lifecycle_lock:
            if self._queue.closed:
                raise QueueClosed("service has been stopped")
            if self._threads:
                return self
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"align-serve-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Graceful shutdown: drain queued jobs, then join the workers.

        Holding the lifecycle lock across the join is safe — workers
        never touch it — and makes concurrent ``stop``/``start`` calls
        serialize instead of racing the pool bookkeeping.
        """
        with self._lifecycle_lock:
            self._queue.close()
            for thread in self._threads:
                thread.join()
            self._threads.clear()

    def __enter__(self) -> "AlignmentService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client API
    def submit(
        self,
        source: AttributedGraph,
        target: AttributedGraph,
        config: SLOTAlignConfig | None = None,
        ground_truth: np.ndarray | None = None,
        init_plan: np.ndarray | None = None,
        tag: str | None = None,
        decoder: str | None = None,
        precision: str | None = None,
    ) -> Job:
        """Enqueue one alignment request and return its job handle.

        Admission control runs here: an over-budget request returns a
        job already in state ``REJECTED`` (with ``error`` naming the
        violated budget) and never enters the queue.  ``decoder`` and
        ``precision`` override the service defaults for this job only;
        unknown names (or a backend/precision combination with no
        route) fail *here*, synchronously, with the registry's
        choice-naming error.
        """
        if precision is not None:
            precision = ensure_precision(precision).name
            backend_for_precision(self.backend, precision)
        job = Job(
            source=source,
            target=target,
            config=config or self.config,
            ground_truth=ground_truth,
            init_plan=init_plan,
            tag=tag,
            decoder=(
                ensure_decoder(decoder) if decoder is not None else self.decoder
            ),
            precision=precision if precision is not None else self.precision,
        )
        with self._stats_lock:
            self._counters["submitted"] += 1
        reason = self.policy.review(
            source.n_nodes, target.n_nodes, job.config, len(self._queue)
        )
        if reason is not None:
            job.mark_rejected(reason)
            with self._stats_lock:
                self._counters["rejected"] += 1
            return job
        self._queue.put(job)
        return job

    def stats(self) -> dict:
        """Service counters, latency percentiles and cache diagnostics."""
        with self._stats_lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
        return {
            **counters,
            "queue_depth": len(self._queue),
            "workers": self.workers,
            "blas_threads": blas_threads(),
            "latency_seconds": {
                "count": len(latencies),
                "p50": _percentile(latencies, 50),
                "p99": _percentile(latencies, 99),
                "mean": (
                    float(np.mean(latencies)) if latencies else None
                ),
            },
            "cache": self.cache.info() if self.cache is not None else None,
        }

    # ------------------------------------------------------------------
    # worker side
    def _decoder_for(self, name: str):
        """Memoised decoder instance for ``name`` (worker threads race)."""
        with self._decoder_lock:
            instance = self._decoders.get(name)
            if instance is None:
                instance = get_decoder(name)
                self._decoders[name] = instance
        return instance

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return  # queue closed and drained
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - keep the worker alive
                # a fault outside the staged handlers is a service bug:
                # fail this job alone, with the traceback, and keep
                # serving
                if not job.done:
                    self._finish_failed(
                        job,
                        f"internal error: {exc!r}\n{traceback.format_exc()}",
                    )

    def _run_job(self, job: Job) -> None:
        # each stage fails this job alone, with the stage named
        job.mark_running()
        t0 = time.perf_counter()
        try:
            problem = prepare_problem(
                job.source,
                job.target,
                job.config,
                init_plan=job.init_plan,
                cache=self.cache,
            )
            problem.bases  # force basis construction through the cache
            # validate the initial coupling in the plan stage, so a
            # malformed init plan reads as a plan failure
            problem.initial_coupling(*problem.marginals())
            name, extra = backend_for_precision(self.backend, job.precision)
            key = None
            if self.cache is not None:
                key = solve_key(
                    problem.digests, job.config, job.init_plan, name, extra
                )
        except Exception as exc:  # noqa: BLE001 - job isolation
            self._finish_failed(job, f"plan failed: {exc!r}")
            return
        t_plan = time.perf_counter()
        try:
            backend = get_backend(name, **extra)
            if key is None:
                result, shared = backend.solve(problem), False
            else:
                # a shared job's solve stage is its wait for the owner's
                # solve (a dictionary lookup on a retained result)
                result, shared = self.cache.result_for(
                    key, lambda: backend.solve(problem)
                )
        except Exception as exc:  # noqa: BLE001 - job isolation
            self._finish_failed(job, f"solve failed: {exc!r}")
            return
        t_solve = time.perf_counter()
        job.solve_shared = shared
        with self._stats_lock:
            self._counters["shared_solves" if shared else "solves"] += 1
        decoded = None
        try:
            if job.decoder is not None:
                decoded = self._decoder_for(job.decoder).decode(result.plan)
        except Exception as exc:  # noqa: BLE001 - job isolation
            self._finish_failed(job, f"decode failed: {exc!r}")
            return
        t_decode = time.perf_counter()
        try:
            metrics: dict[str, float] = {}
            if job.ground_truth is not None:
                metrics = evaluate_alignment(
                    decoded if decoded is not None else result,
                    job.ground_truth,
                    ks=self.evaluate_ks,
                )
        except Exception as exc:  # noqa: BLE001 - job isolation
            self._finish_failed(job, f"evaluate failed: {exc!r}")
            return
        stage_seconds = {"plan": t_plan - t0, "solve": t_solve - t_plan}
        if decoded is not None:
            stage_seconds["decode"] = t_decode - t_solve
        stage_seconds["evaluate"] = time.perf_counter() - t_decode
        run = EngineRun(
            result=result,
            metrics=metrics,
            stage_seconds=stage_seconds,
            decoded=decoded,
        )
        job.mark_done(run)
        with self._stats_lock:
            self._counters["completed"] += 1
            if job.latency_seconds is not None:
                self._latencies.append(job.latency_seconds)

    def _finish_failed(self, job: Job, error: str) -> None:
        job.mark_failed(error)
        with self._stats_lock:
            self._counters["failed"] += 1


def wait_all(jobs: list[Job], timeout: float | None = None) -> bool:
    """Block until every job is terminal; False if the deadline passes."""
    deadline = None if timeout is None else time.perf_counter() + timeout
    for job in jobs:
        remaining = None
        if deadline is not None:
            remaining = max(0.0, deadline - time.perf_counter())
        if not job.wait(remaining) and not job.done:
            return False
    return True


__all__ = [
    "AlignmentService",
    "JobState",
    "wait_all",
]
