"""Alignment-as-a-service: job queue, admission control, worker pool.

The serving layer (ROADMAP item 1) wraps the unified engine in a
long-lived, in-process service: :class:`AlignmentService` accepts
alignment requests as :class:`Job` handles through a thread-safe FIFO
:class:`JobQueue`, shares one content-keyed plan cache across all
jobs, runs one solve per distinct request (bit-for-bit equal to a
direct engine run, shared by every job asking for it), and applies
:class:`AdmissionPolicy` budgets at submit time with graceful
rejection.  The ``repro serve`` CLI subcommand and
the serving benchmark (``benchmarks/test_serve_bench.py``) drive it
with synthetic traffic.
"""

from repro.serve.budget import AdmissionPolicy
from repro.serve.jobs import Job, JobQueue, JobState, QueueClosed
from repro.serve.service import AlignmentService, wait_all

__all__ = [
    "AdmissionPolicy",
    "AlignmentService",
    "Job",
    "JobQueue",
    "JobState",
    "QueueClosed",
    "wait_all",
]
