"""Tests for the alignment service (repro.serve).

Covers the queue primitives, admission control (graceful rejection
with reasons), job ordering under a single worker, served plans
bitwise-identical to direct engine runs (also with overlapping
workers), per-job failure isolation, worker survival, solve sharing
(one solve per distinct request) and the stats/cache-sharing surface.
"""

import dataclasses
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro.engine.planning as planning
import repro.serve.service as service_mod
from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import (
    AlignmentEngine,
    PlanCache,
    backends,
    blas_threads,
    register_backend,
)
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.serve import (
    AdmissionPolicy,
    AlignmentService,
    Job,
    JobQueue,
    JobState,
    QueueClosed,
    wait_all,
)

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=25, sinkhorn_iter=20,
    track_history=False,
)


def bench_pair(seed=0, n_per_block=12):
    graph = stochastic_block_model([n_per_block] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.1, seed=seed + 2)


def direct_plan(pair, config=FAST, precision="float64"):
    return AlignmentEngine(config, cache=None, precision=precision).align(
        pair.source, pair.target
    ).plan


def make_job(seed=0, **kwargs):
    pair = bench_pair(seed=seed)
    return Job(
        source=pair.source, target=pair.target, config=FAST, **kwargs
    )


class TestJobQueue:
    def test_fifo_order(self):
        queue = JobQueue()
        jobs = [make_job(seed=s) for s in range(3)]
        for job in jobs:
            queue.put(job)
        assert [queue.get() for _ in jobs] == jobs

    def test_close_drains_then_signals_shutdown(self):
        queue = JobQueue()
        job = make_job()
        queue.put(job)
        queue.close()
        assert queue.get() is job
        assert queue.get() is None
        with pytest.raises(QueueClosed):
            queue.put(make_job())

    def test_close_wakes_blocked_getter(self):
        queue = JobQueue()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(queue.get()))
        thread.start()
        queue.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen == [None]


class TestAdmissionPolicy:
    def test_rejects_over_queue_depth(self):
        policy = AdmissionPolicy(max_queue_depth=2)
        reason = policy.review(10, 10, FAST, queue_depth=2)
        assert reason is not None and "queue full" in reason
        assert policy.review(10, 10, FAST, queue_depth=1) is None

    def test_rejects_over_iteration_budget(self):
        policy = AdmissionPolicy(max_outer_iter=FAST.max_outer_iter - 1)
        reason = policy.review(10, 10, FAST, queue_depth=0)
        assert reason is not None and "iteration budget" in reason

    def test_rejects_oversized_plans(self):
        policy = AdmissionPolicy(max_plan_bytes=100 * 100 * 8)
        assert policy.review(100, 100, FAST, queue_depth=0) is None
        reason = policy.review(101, 100, FAST, queue_depth=0)
        assert reason is not None and "plan too large" in reason

    def test_none_disables_every_bound(self):
        policy = AdmissionPolicy(
            max_queue_depth=None, max_outer_iter=None, max_plan_bytes=None
        )
        assert policy.review(10_000, 10_000, FAST, queue_depth=10**6) is None


class TestServiceLifecycle:
    def test_single_job_bitwise_equal_to_direct_engine(self):
        pair = bench_pair(seed=0)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(pair.source, pair.target)
            assert job.wait(timeout=60)
        assert job.state is JobState.DONE
        assert job.batch_size == 1
        np.testing.assert_array_equal(
            job.result.result.plan, direct_plan(pair)
        )

    def test_fifo_completion_order_single_worker(self):
        pairs = [bench_pair(seed=s) for s in range(4)]
        service = AlignmentService(FAST, cache=PlanCache(), workers=1)
        jobs = [service.submit(p.source, p.target) for p in pairs]
        with service:
            assert wait_all(jobs, timeout=120)
        assert all(job.state is JobState.DONE for job in jobs)
        finished = [job.finished_at for job in jobs]
        assert finished == sorted(finished)
        assert all(job.batch_size == 1 for job in jobs)

    def test_evaluates_when_ground_truth_present(self):
        pair = bench_pair(seed=1)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(
                pair.source, pair.target, ground_truth=pair.ground_truth
            )
            assert job.wait(timeout=60)
        assert job.state is JobState.DONE
        assert 0.0 <= job.result.metrics["hits@1"] <= 100.0
        assert set(job.result.stage_seconds) == {"plan", "solve", "evaluate"}

    def test_stop_drains_queued_jobs(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(FAST, cache=PlanCache())
        jobs = [service.submit(p.source, p.target) for p in pairs]
        service.start()
        service.stop()  # graceful: drains the queue before joining
        assert all(job.done for job in jobs)
        assert all(job.state is JobState.DONE for job in jobs)


class TestServedPlans:
    def test_overlapping_burst_bitwise_equal_to_direct_engine(self):
        """Two workers solving at the same time (one job in float32)
        still serve every pair exactly the direct engine's plan."""
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(FAST, cache=PlanCache(), workers=2)
        # submit *before* start so both workers find a backlog at once
        jobs = [
            (pair, "float64", service.submit(pair.source, pair.target))
            for pair in pairs + pairs
        ]
        jobs.append(
            (
                pairs[0],
                "float32",
                service.submit(
                    pairs[0].source, pairs[0].target, precision="float32"
                ),
            )
        )
        with service:
            assert wait_all([job for _, _, job in jobs], timeout=120)
        overlapped = any(
            a.started_at < b.finished_at and b.started_at < a.finished_at
            for (_, _, a), (_, _, b) in zip(jobs, jobs[1:])
        )
        assert overlapped
        for pair, precision, job in jobs:
            assert job.state is JobState.DONE
            assert job.batch_size == 1
            np.testing.assert_array_equal(
                job.result.result.plan, direct_plan(pair, precision=precision)
            )
        assert service.stats()["completed"] == len(jobs)

    def test_max_batch_is_accepted_and_ignored(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, max_batch=2
        )
        jobs = [service.submit(p.source, p.target) for p in pairs]
        with service:
            assert wait_all(jobs, timeout=120)
        assert all(job.state is JobState.DONE for job in jobs)
        assert [job.batch_size for job in jobs] == [1, 1, 1]

    def test_plan_failure_is_isolated_to_its_job(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        bad_init = np.full((5, 5), 1.0 / 25)  # wrong shape for the pair
        service = AlignmentService(FAST, cache=PlanCache(), workers=1)
        good = [service.submit(p.source, p.target) for p in pairs[:2]]
        bad = service.submit(
            pairs[2].source, pairs[2].target, init_plan=bad_init
        )
        with service:
            assert wait_all(good + [bad], timeout=120)
        assert bad.state is JobState.FAILED
        assert "plan failed" in bad.error
        for pair, job in zip(pairs, good):
            assert job.state is JobState.DONE
            np.testing.assert_array_equal(
                job.result.result.plan, direct_plan(pair)
            )


class TestAdmissionInService:
    def test_oversized_job_rejected_gracefully(self):
        pair = bench_pair(seed=0)
        n, m = pair.source.n_nodes, pair.target.n_nodes
        service = AlignmentService(
            FAST,
            cache=PlanCache(),
            policy=AdmissionPolicy(max_plan_bytes=n * m * 8 - 1),
        )
        job = service.submit(pair.source, pair.target)
        assert job.done  # terminal immediately, no queueing
        assert job.state is JobState.REJECTED
        assert "plan too large" in job.error
        assert service.stats()["rejected"] == 1
        assert len(service._queue) == 0

    def test_queue_depth_rejection_and_recovery(self):
        pairs = [bench_pair(seed=s) for s in range(3)]
        service = AlignmentService(
            FAST, cache=PlanCache(), policy=AdmissionPolicy(max_queue_depth=2)
        )
        admitted = [service.submit(p.source, p.target) for p in pairs[:2]]
        overflow = service.submit(pairs[2].source, pairs[2].target)
        assert overflow.state is JobState.REJECTED
        assert "queue full" in overflow.error
        with service:
            assert wait_all(admitted, timeout=120)
        assert all(job.state is JobState.DONE for job in admitted)
        # once the queue drained, the same request is admitted again
        with AlignmentService(
            FAST, cache=PlanCache(), policy=AdmissionPolicy(max_queue_depth=2)
        ) as fresh:
            retry = fresh.submit(pairs[2].source, pairs[2].target)
            assert retry.wait(timeout=60)
        assert retry.state is JobState.DONE

    def test_iteration_budget_rejection(self):
        pair = bench_pair(seed=0)
        service = AlignmentService(
            FAST,
            cache=PlanCache(),
            policy=AdmissionPolicy(max_outer_iter=FAST.max_outer_iter - 1),
        )
        job = service.submit(pair.source, pair.target)
        assert job.state is JobState.REJECTED
        assert "iteration budget" in job.error


class TestCacheSharing:
    def test_repeat_traffic_hits_the_shared_cache(self):
        pair = bench_pair(seed=0)
        cache = PlanCache()
        with AlignmentService(FAST, cache=cache, workers=2) as service:
            jobs = [
                service.submit(pair.source, pair.target) for _ in range(4)
            ]
            assert wait_all(jobs, timeout=120)
        assert all(job.state is JobState.DONE for job in jobs)
        info = cache.info()
        assert info["builds"] == 2  # one per graph of the pair
        assert info["hits"] > 0

    def test_stats_surface(self):
        pair = bench_pair(seed=0)
        with AlignmentService(FAST, cache=PlanCache()) as service:
            job = service.submit(pair.source, pair.target)
            assert job.wait(timeout=60)
            stats = service.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["failed"] == 0
        assert stats["latency_seconds"]["count"] == 1
        assert stats["latency_seconds"]["p50"] > 0
        assert stats["latency_seconds"]["p99"] >= stats["latency_seconds"]["p50"]
        assert stats["cache"]["builds"] == 2
        assert stats["blas_threads"] == blas_threads()


class TestWorkerSurvival:
    def test_fault_outside_the_stages_fails_the_job_not_the_worker(
        self, monkeypatch
    ):
        real = service_mod.EngineRun
        calls = []

        def flaky(**kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return real(**kwargs)

        monkeypatch.setattr(service_mod, "EngineRun", flaky)
        pairs = [bench_pair(seed=s) for s in range(2)]
        service = AlignmentService(FAST, cache=PlanCache(), workers=1)
        jobs = [service.submit(p.source, p.target) for p in pairs]
        with service:
            assert wait_all(jobs, timeout=120)
        assert jobs[0].state is JobState.FAILED
        assert jobs[0].error.startswith("internal error: RuntimeError('boom')")
        assert "Traceback" in jobs[0].error
        assert jobs[1].state is JobState.DONE
        np.testing.assert_array_equal(
            jobs[1].result.result.plan, direct_plan(pairs[1])
        )
        stats = service.stats()
        assert stats["failed"] == 1 and stats["completed"] == 1


def _counting(backend_cls, counter):
    """``backend_cls`` with every solve counted (and optionally gated
    or failed) through ``counter``."""

    class Counting(backend_cls):
        def solve(self, problem):
            with counter.lock:
                counter.calls += 1
            if counter.gate is not None:
                assert counter.gate.wait(timeout=60)
            if counter.error is not None:
                raise counter.error
            return super().solve(problem)

    return Counting


@pytest.fixture
def solves():
    """Count solves of the float64 and float32 service backends.

    Both registry entries are replaced through ``register_backend`` and
    the registry is restored afterwards.
    """
    saved = dict(backends._REGISTRY)
    counter = SimpleNamespace(
        calls=0, gate=None, error=None, lock=threading.Lock()
    )
    for name in ("fused-dense", "batched-f32"):
        backend_cls, description = saved[name]
        register_backend(name, _counting(backend_cls, counter), description)
    try:
        yield counter
    finally:
        backends._REGISTRY.clear()
        backends._REGISTRY.update(saved)


def _wait_until_parked(cache, requests, timeout=60):
    """Block until ``requests`` solve requests found no retained result
    (the owner plus waiters parked on its in-flight solve)."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        with cache._lock:
            if cache._counts["solve"]["miss"] >= requests:
                return
        time.sleep(0.005)
    raise AssertionError("solve requests never parked")


def _flipped_feature_byte(graph):
    features = np.array(graph.features, dtype=np.float64, copy=True)
    features.view(np.uint8)[0] ^= 1
    return type(graph)(graph.adjacency.copy(), features=features)


class TestSolveSharing:
    def test_identical_jobs_run_one_solve(self, solves):
        pair = bench_pair(seed=0)
        cache = PlanCache()
        service = AlignmentService(FAST, cache=cache, workers=2)
        jobs = [service.submit(pair.source, pair.target) for _ in range(6)]
        with service:
            assert wait_all(jobs, timeout=120)
        assert solves.calls == 1
        assert all(job.state is JobState.DONE for job in jobs)
        assert [job.solve_shared for job in jobs].count(False) == 1
        stats = service.stats()
        assert stats["solves"] == 1 and stats["shared_solves"] == 5
        info = cache.info()
        assert info["solves"] == 1 and info["solve_hits"] == 5
        assert info["builds"] == 2  # bases keep their own counters
        expected = direct_plan(pair)
        for job in jobs:
            assert job.batch_size == 1
            np.testing.assert_array_equal(job.result.result.plan, expected)

    @pytest.mark.parametrize(
        "variant", ["config", "precision", "init_plan", "feature_byte"]
    )
    def test_jobs_differing_in_one_input_solve_separately(
        self, solves, variant
    ):
        pair = bench_pair(seed=0)
        source, target = pair.source, pair.target
        kwargs, config, precision, init_plan = {}, FAST, "float64", None
        if variant == "config":
            config = dataclasses.replace(FAST, sinkhorn_lr=0.02)
            kwargs["config"] = config
        elif variant == "precision":
            precision = kwargs["precision"] = "float32"
        elif variant == "init_plan":
            rng = np.random.default_rng(0)
            init_plan = rng.random((source.n_nodes, target.n_nodes)) + 0.1
            kwargs["init_plan"] = init_plan
        else:
            source = _flipped_feature_byte(source)
        service = AlignmentService(FAST, cache=PlanCache(), workers=1)
        base = service.submit(pair.source, pair.target)
        other = service.submit(source, target, **kwargs)
        with service:
            assert wait_all([base, other], timeout=120)
        assert solves.calls == 2
        assert not base.solve_shared and not other.solve_shared
        assert service.stats()["solves"] == 2
        np.testing.assert_array_equal(
            base.result.result.plan, direct_plan(pair)
        )
        direct = AlignmentEngine(config, cache=None, precision=precision)
        np.testing.assert_array_equal(
            other.result.result.plan,
            direct.align(source, target, init_plan=init_plan).plan,
        )

    def test_decoder_and_ground_truth_share_the_solve(self, solves):
        pair = bench_pair(seed=1)
        service = AlignmentService(FAST, cache=PlanCache(), workers=2)
        scored = service.submit(
            pair.source, pair.target, ground_truth=pair.ground_truth
        )
        decoded = service.submit(
            pair.source,
            pair.target,
            ground_truth=pair.ground_truth,
            decoder="hungarian",
        )
        bare = service.submit(pair.source, pair.target)
        with service:
            assert wait_all([scored, decoded, bare], timeout=120)
        assert solves.calls == 1
        assert scored.result.decoded is None
        assert decoded.result.decoded is not None
        assert bare.result.metrics == {}
        assert "decode" in decoded.result.stage_seconds
        for job, decoder in ((scored, None), (decoded, "hungarian")):
            direct = AlignmentEngine(FAST, cache=None, decoder=decoder).run(
                pair.source, pair.target, ground_truth=pair.ground_truth
            )
            assert job.result.metrics == direct.metrics

    def test_served_plan_is_read_only(self):
        pair = bench_pair(seed=0)
        cache = PlanCache()
        service = AlignmentService(FAST, cache=cache, workers=1)
        jobs = [service.submit(pair.source, pair.target) for _ in range(2)]
        with service:
            assert wait_all(jobs, timeout=120)
        first, second = (job.result.result for job in jobs)
        assert first is not second  # each job owns its result object
        assert first.plan is second.plan
        with pytest.raises(ValueError, match="read-only"):
            first.plan[0, 0] = 1.0
        # extras are per job: a write stays in the job that made it,
        # and never reaches the retained entry a later hit copies
        beta = second.extras["beta_source"].copy()
        first.extras["beta_source"][:] = -1.0
        first.extras["note"] = "first job only"
        np.testing.assert_array_equal(second.extras["beta_source"], beta)
        assert "note" not in second.extras
        later = AlignmentService(FAST, cache=cache, workers=1)
        job = later.submit(pair.source, pair.target)
        with later:
            assert wait_all([job], timeout=120)
        assert job.solve_shared
        np.testing.assert_array_equal(job.result.result.extras["beta_source"], beta)
        assert "note" not in job.result.result.extras

    def test_each_graph_is_hashed_once_per_job(self, monkeypatch):
        # the bases keys and the solve key reuse one digest per graph
        hashed = []
        digest = planning.graph_digest
        monkeypatch.setattr(
            planning, "graph_digest", lambda g: hashed.append(g) or digest(g)
        )
        pair = bench_pair(seed=0)
        service = AlignmentService(FAST, cache=PlanCache(), workers=1)
        jobs = [service.submit(pair.source, pair.target) for _ in range(3)]
        with service:
            assert wait_all(jobs, timeout=120)
        assert all(job.state is JobState.DONE for job in jobs)
        assert len(hashed) == 2 * len(jobs)

    def test_sparse_plans_are_shared_read_only(self):
        pair = bench_pair(seed=0)
        service = AlignmentService(
            FAST, backend="sparse", cache=PlanCache(), workers=2
        )
        jobs = [service.submit(pair.source, pair.target) for _ in range(3)]
        with service:
            assert wait_all(jobs, timeout=120)
        assert service.stats()["solves"] == 1
        direct = AlignmentEngine(FAST, backend="sparse", cache=None).align(
            pair.source, pair.target
        )
        for job in jobs:
            plan = job.result.result.plan
            assert not plan.data.flags.writeable
            assert (plan != direct.plan).nnz == 0

    def test_failed_solve_fails_every_sharer_and_is_not_retained(
        self, solves
    ):
        pair = bench_pair(seed=0)
        cache = PlanCache()
        solves.gate = threading.Event()
        solves.error = RuntimeError("solver exploded")
        service = AlignmentService(FAST, cache=cache, workers=2)
        jobs = [service.submit(pair.source, pair.target) for _ in range(2)]
        with service:
            _wait_until_parked(cache, 2)
            solves.gate.set()
            assert wait_all(jobs, timeout=120)
            assert solves.calls == 1
            for job in jobs:
                assert job.state is JobState.FAILED
                assert job.error == "solve failed: RuntimeError('solver exploded')"
            solves.gate = solves.error = None
            retry = service.submit(pair.source, pair.target)
            assert retry.wait(timeout=60)
        assert retry.state is JobState.DONE
        assert not retry.solve_shared
        assert solves.calls == 2
        np.testing.assert_array_equal(
            retry.result.result.plan, direct_plan(pair)
        )
        assert service.stats()["failed"] == 2

    def test_without_a_cache_every_job_solves(self, solves):
        pair = bench_pair(seed=0)
        service = AlignmentService(FAST, cache=None, workers=2)
        jobs = [service.submit(pair.source, pair.target) for _ in range(3)]
        with service:
            assert wait_all(jobs, timeout=120)
        assert solves.calls == 3
        assert not any(job.solve_shared for job in jobs)
        stats = service.stats()
        assert stats["solves"] == 3 and stats["shared_solves"] == 0
        expected = direct_plan(pair)
        for job in jobs:
            np.testing.assert_array_equal(job.result.result.plan, expected)

    def test_stress_more_workers_than_cores(self):
        """Four workers, a 1 µs switch interval: no solve is lost or
        run twice, and no counter update is lost."""
        config = dataclasses.replace(FAST, max_outer_iter=3)
        pairs = [bench_pair(seed=s, n_per_block=5) for s in range(2)]
        cache = PlanCache()
        service = AlignmentService(config, cache=cache, workers=4)
        jobs = [
            service.submit(pairs[i % 2].source, pairs[i % 2].target)
            for i in range(24)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with service:
                assert wait_all(jobs, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert all(job.state is JobState.DONE for job in jobs)
        stats, info = service.stats(), cache.info()
        assert stats["solves"] == info["solves"] == 2
        assert stats["shared_solves"] == info["solve_hits"] == 22
        assert sum(not job.solve_shared for job in jobs) == 2
        for index, job in enumerate(jobs):
            np.testing.assert_array_equal(
                job.result.result.plan, direct_plan(pairs[index % 2], config)
            )

    def test_oversized_result_is_shared_in_flight_not_retained(self, solves):
        pair = bench_pair(seed=0)
        cache = PlanCache(max_bytes=0)
        solves.gate = threading.Event()
        service = AlignmentService(FAST, cache=cache, workers=2)
        jobs = [service.submit(pair.source, pair.target) for _ in range(2)]
        with service:
            _wait_until_parked(cache, 2)
            solves.gate.set()
            assert wait_all(jobs, timeout=120)
            assert solves.calls == 1
            assert sorted(job.solve_shared for job in jobs) == [False, True]
            assert cache.info()["entries"] == 0
            solves.gate = None
            later = service.submit(pair.source, pair.target)
            assert later.wait(timeout=60)
        assert solves.calls == 2  # nothing was retained to reuse
        expected = direct_plan(pair)
        for job in jobs + [later]:
            assert job.state is JobState.DONE
            np.testing.assert_array_equal(job.result.result.plan, expected)
