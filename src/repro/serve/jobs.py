"""Job and queue primitives of the alignment service.

A :class:`Job` is one alignment request moving through the service:
``QUEUED → RUNNING → DONE`` on the happy path, ``REJECTED`` when
admission control turns it away at submit time, ``FAILED`` when the
solve raises.  Completion is a :class:`threading.Event`, so any number
of client threads can :meth:`Job.wait` on one job.

:class:`JobQueue` is the FIFO feeding the worker loop.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.core.config import SLOTAlignConfig
from repro.graphs.graph import AttributedGraph


class JobState(str, Enum):
    """Lifecycle of one alignment request."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"


_JOB_IDS = itertools.count(1)


@dataclass
class Job:
    """One alignment request and its lifecycle bookkeeping.

    ``result`` is an :class:`repro.engine.EngineRun` once the job is
    ``DONE`` (plan + metrics + stage timings); ``error`` carries the
    failure or rejection reason otherwise.  Timestamps are
    ``time.perf_counter`` readings, so latencies are exact per-process
    durations rather than wall-clock differences.

    ``solve_shared`` is True when another job's solve served this job;
    its ``stage_seconds["solve"]`` is then the wait for that shared
    solve (near zero, one dictionary lookup, when the result was
    already retained).  ``batch_size`` is always 1 (no solve stacks
    jobs) and kept for callers that read it.
    """

    source: AttributedGraph
    target: AttributedGraph
    config: SLOTAlignConfig
    ground_truth: np.ndarray | None = None
    init_plan: np.ndarray | None = None
    tag: str | None = None
    # decoder applied to this job's solved plan, or None to score the
    # plan posterior directly
    decoder: str | None = None
    # solve-stage working precision ("float64" / "float32")
    precision: str = "float64"
    job_id: int = field(default_factory=lambda: next(_JOB_IDS))
    state: JobState = JobState.QUEUED
    result: object = None
    error: str | None = None
    batch_size: int = 1
    solve_shared: bool = False
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: float | None = None
    finished_at: float | None = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    @property
    def queue_seconds(self) -> float | None:
        """Time spent waiting in the queue (None while still queued)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_seconds(self) -> float | None:
        """Submit-to-terminal latency (None while in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    # ------------------------------------------------------------------
    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_at = time.perf_counter()

    def mark_done(self, result) -> None:
        self.result = result
        self.state = JobState.DONE
        self.finished_at = time.perf_counter()
        self._done.set()

    def mark_failed(self, error: str) -> None:
        self.error = error
        self.state = JobState.FAILED
        self.finished_at = time.perf_counter()
        self._done.set()

    def mark_rejected(self, reason: str) -> None:
        self.error = reason
        self.state = JobState.REJECTED
        self.finished_at = time.perf_counter()
        self._done.set()


class QueueClosed(RuntimeError):
    """Raised when putting into a queue that has been closed."""


class JobQueue:
    """Thread-safe FIFO of jobs."""

    def __init__(self):
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._items: deque[Job] = deque()  #: guarded-by: _lock, _not_empty
        self._closed = False  #: guarded-by: _lock, _not_empty

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, job: Job) -> None:
        """Append a job; wakes one blocked ``get``."""
        with self._not_empty:
            if self._closed:
                raise QueueClosed("queue is closed")
            self._items.append(job)
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Job | None:
        """Pop the head job, blocking while the queue is empty.

        Returns ``None`` once the queue is closed *and* drained (the
        worker-shutdown signal), or on timeout.
        """
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        with self._not_empty:
            while not self._items:
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return None
                self._not_empty.wait(remaining)
            return self._items.popleft()

    def close(self) -> None:
        """Refuse new work and wake every blocked ``get``."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()
