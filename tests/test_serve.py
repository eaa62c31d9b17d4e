"""Tests for the alignment service (repro.serve).

Covers the queue primitives, admission control (graceful rejection
with reasons), job ordering under a single worker, served plans
bitwise-identical to direct engine runs (also with overlapping
workers), per-job failure isolation, and the stats/cache-sharing
surface.
"""

import threading

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import AlignmentEngine, PlanCache, blas_threads
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
