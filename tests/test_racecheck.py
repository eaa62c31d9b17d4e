"""Tests for the runtime race/lock-order detector (repro.analysis.racecheck).

The detector's own semantics first (inversion cycles, guarded-object
access, the Condition protocol, module instrumentation scoping), then
the concurrency contracts it exists to enforce: the PlanCache
single-flight discipline and the JobQueue FIFO surface run under instrumented locks with **zero** findings, and so does a
full AlignmentService burst.
"""

import threading
import time
import types

import pytest

import repro.engine.planning as planning_mod
import repro.serve.jobs as jobs_mod
import repro.serve.service as service_mod
from repro.analysis.racecheck import (
    InstrumentedLock,
    LockOrderFinding,
    RaceCheckError,
    RaceRegistry,
    UnguardedAccessFinding,
)
from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=10, sinkhorn_iter=15,
    track_history=False,
)


def bench_pair(seed=0, n_per_block=10):
    graph = stochastic_block_model([n_per_block] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 24, words_per_node=5, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.1, seed=seed + 2)


class Box:
    """Plain mutable object for guard() tests (SimpleNamespace forbids
    the ``__class__`` swap the monitor relies on)."""

    def __init__(self):
        self.value = 0
        self.free = 0


def run_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestLockOrder:
    def test_inversion_detected_without_deadlocking(self):
        """The fixture's deliberate A->B / B->A inversion is reported
        from the *orders observed* — the threads run sequentially, so
        no actual deadlock is needed (or risked)."""
        registry = RaceRegistry()
        a = registry.lock("A")
        b = registry.lock("B")

        def first():
            with a:
                with b:
                    pass

        def second():
            with b:
                with a:
                    pass

        run_thread(first)
        run_thread(second)
        inversions = [
            f for f in registry.findings() if isinstance(f, LockOrderFinding)
        ]
        assert len(inversions) == 1
        assert "lock-order inversion" in inversions[0].format()
        assert {"A", "B"} == set(inversions[0].cycle)
        with pytest.raises(RaceCheckError, match="inversion"):
            registry.assert_clean()

    def test_consistent_order_is_clean(self):
        registry = RaceRegistry()
        a = registry.lock("A")
        b = registry.lock("B")
        for _ in range(3):
            def ordered():
                with a:
                    with b:
                        pass
            run_thread(ordered)
        registry.assert_clean()

    def test_three_lock_cycle_detected(self):
        registry = RaceRegistry()
        locks = {name: registry.lock(name) for name in "ABC"}
        for outer, inner in (("A", "B"), ("B", "C"), ("C", "A")):
            def chain(outer=outer, inner=inner):
                with locks[outer]:
                    with locks[inner]:
                        pass
            run_thread(chain)
        inversions = [
            f for f in registry.findings() if isinstance(f, LockOrderFinding)
        ]
        assert len(inversions) == 1
        assert set(inversions[0].cycle) == {"A", "B", "C"}

    def test_nested_same_lock_pairs_do_not_self_edge(self):
        registry = RaceRegistry()
        a = registry.lock("A")
        b = registry.lock("B")

        def nested():
            with a:
                with b:
                    pass
                with b:
                    pass

        run_thread(nested)
        registry.assert_clean()


class TestGuardedObjects:
    def make(self):
        registry = RaceRegistry()
        lock = registry.lock("L")
        obj = Box()
        registry.guard(obj, ("value",), lock, label="obj")
        return registry, lock, obj

    def test_unguarded_read_and_write_recorded_once_each(self):
        registry, lock, obj = self.make()
        obj.value
        obj.value
        obj.value = 3
        findings = registry.findings()
        assert all(isinstance(f, UnguardedAccessFinding) for f in findings)
        assert {(f.attr, f.operation) for f in findings} == {
            ("value", "read"), ("value", "write"),
        }
        assert "obj.value" in findings[0].format()

    def test_guarded_access_is_clean(self):
        registry, lock, obj = self.make()
        with lock:
            obj.value = 5
            assert obj.value == 5
        obj.free = 1  # unmonitored attribute needs no lock
        registry.assert_clean()

    def test_lock_ownership_is_per_thread(self):
        """Holding the lock on one thread does not license another
        thread's access."""
        registry, lock, obj = self.make()
        with lock:
            run_thread(lambda: obj.value)
        findings = registry.findings()
        assert [(f.attr, f.operation) for f in findings] == [("value", "read")]

    def test_guard_requires_instrumented_lock(self):
        registry = RaceRegistry()
        with pytest.raises(TypeError, match="InstrumentedLock"):
            registry.guard(Box(), ("value",), threading.Lock())


class TestConditionProtocol:
    def test_wait_notify_roundtrip_is_clean(self):
        registry = RaceRegistry()
        cond = registry.condition(name="cv")
        ready = []

        def waiter():
            with cond:
                while not ready:
                    assert cond.wait(timeout=5)
            ready.append("woke")

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        with cond:
            ready.append("go")
            cond.notify_all()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert ready == ["go", "woke"]
        registry.assert_clean()

    def test_condition_rejects_uninstrumented_locks(self):
        registry = RaceRegistry()
        with pytest.raises(TypeError, match="InstrumentedLock"):
            registry.condition(threading.Lock())

    def test_wait_releases_the_guard(self):
        """During cond.wait the lock is not owned: a guarded access
        made then (from the waiting thread's perspective, by another
        thread holding the lock) stays clean."""
        registry = RaceRegistry()
        lock = registry.lock("L")
        cond = registry.condition(lock)
        obj = Box()
        registry.guard(obj, ("value",), lock, label="obj")
        woke = threading.Event()

        def waiter():
            with cond:
                cond.wait(timeout=5)
                obj.value += 1  # re-acquired: owned again
            woke.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.02)
        with cond:
            obj.value = 10  # waiter parked in wait(): we own the lock
            cond.notify_all()
        assert woke.wait(timeout=30)
        thread.join(timeout=30)
        registry.assert_clean()
        assert obj.value == 11


class TestInstrumentation:
    def test_swap_and_restore(self):
        registry = RaceRegistry()
        original = jobs_mod.threading
        with registry.instrument(jobs_mod):
            assert jobs_mod.threading is not original
            queue = jobs_mod.JobQueue()
            assert isinstance(queue._lock, InstrumentedLock)
            # passthrough attributes resolve to the real module
            assert jobs_mod.threading.Event is threading.Event
        assert jobs_mod.threading is original
        assert not isinstance(jobs_mod.JobQueue()._lock, InstrumentedLock)

    def test_restore_on_exception(self):
        registry = RaceRegistry()
        original = jobs_mod.threading
        with pytest.raises(RuntimeError, match="boom"):
            with registry.instrument(jobs_mod):
                raise RuntimeError("boom")
        assert jobs_mod.threading is original

    def test_module_without_threading_global_is_rejected(self):
        registry = RaceRegistry()
        bare = types.SimpleNamespace(__name__="bare")
        with pytest.raises(AttributeError, match="bare"):
            with registry.instrument(bare):
                pass  # pragma: no cover


class TestPlanCacheUnderRacecheck:
    def test_single_flight_stress_has_zero_findings(self):
        """Satellite contract: a miss burst over shared keys from many
        threads — single-flight builds, LRU bookkeeping, eviction —
        acquires locks consistently and touches guarded state only
        under the cache lock."""
        pairs = [bench_pair(seed=s) for s in range(3)]
        graphs = [p.source for p in pairs] + [p.target for p in pairs]
        registry = RaceRegistry()
        with registry.instrument(planning_mod):
            cache = planning_mod.PlanCache()
            registry.guard(
                cache,
                ("_entries", "_bytes", "_in_flight", "_counts"),
                cache._lock,
                label="PlanCache",
            )
            barrier = threading.Barrier(6)
            errors = []

            def worker():
                try:
                    barrier.wait(timeout=30)
                    for _ in range(5):
                        for graph in graphs:
                            bases = cache.bases_for(graph, FAST)
                            assert len(bases) == FAST.n_bases
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert not errors
            info = cache.info()
        assert info["builds"] == len(graphs)  # single-flight: one per key
        registry.assert_clean()


class TestJobQueueUnderRacecheck:
    def test_put_get_stress_has_zero_findings(self):
        """Producers put tagged items while consumers race get() until
        the queue closes; the queue's Condition discipline must stay
        inversion-free and every guarded touch must hold the lock."""
        registry = RaceRegistry()
        with registry.instrument(jobs_mod):
            queue = jobs_mod.JobQueue()
            registry.guard(
                queue, ("_items", "_closed"), queue._lock, label="JobQueue"
            )
            total = 120
            taken: list = []
            taken_lock = threading.Lock()

            def producer(offset):
                for index in range(offset, total, 3):
                    queue.put(types.SimpleNamespace(tag=index % 4))

            def getter():
                while True:
                    item = queue.get(timeout=0.2)
                    if item is None:
                        if queue.closed:
                            return
                        continue
                    with taken_lock:
                        taken.append(item)

            producers = [
                threading.Thread(target=producer, args=(off,)) for off in range(3)
            ]
            consumers = [threading.Thread(target=getter) for _ in range(3)]
            for thread in producers + consumers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
                assert not thread.is_alive()
            # wait for the consumers to drain everything, then close
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with taken_lock:
                    if len(taken) == total:
                        break
                time.sleep(0.005)
            queue.close()
            for thread in consumers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert len(taken) == total
        assert len(queue) == 0
        registry.assert_clean()


class TestServiceUnderRacecheck:
    def test_service_burst_has_zero_findings(self):
        """The full serving path — submit, worker pool, shared plan
        cache, stats, stop — under instrumented locks in
        every participating module."""
        pairs = [bench_pair(seed=s) for s in range(3)]
        registry = RaceRegistry()
        with registry.instrument(service_mod, jobs_mod, planning_mod):
            cache = planning_mod.PlanCache()
            registry.guard(
                cache,
                ("_entries", "_bytes", "_in_flight", "_counts"),
                cache._lock,
                label="PlanCache",
            )
            service = service_mod.AlignmentService(
                FAST, cache=cache, workers=2
            )
            with service:
                jobs = [
                    service.submit(pair.source, pair.target)
                    for pair in pairs for _ in range(2)
                ]
                for job in jobs:
                    assert job.wait(timeout=120)
            stats = service.stats()
        assert stats["completed"] == len(jobs)
        assert all(job.state is jobs_mod.JobState.DONE for job in jobs)
        registry.assert_clean()
