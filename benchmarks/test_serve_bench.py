"""Serving benchmark: synthetic traffic through the alignment service.

Drives :func:`repro.experiments.run_serve_traffic` — a burst of
requests cycling over a few distinct pairs through the
:class:`~repro.serve.AlignmentService` worker pool — and emits
``BENCH_serve.json`` at the repo root so the serving layer's
performance trajectory (pairs/sec, cache hit rate, p50/p99 latency,
BLAS team size) is machine-readable across PRs, alongside
``BENCH_solver.json`` and ``BENCH_scale.json``.

``benchmarks/compare_bench.py`` gates on the fresh file: the cache hit
rate must be positive, the BLAS team must be the one-thread policy
(unless the environment overrides it), the bitwise checks against a
direct engine run (first job and every job) must hold, and the
calibrated pairs/sec must not regress against the committed baseline
(machine-normalised via ``reference_seconds``, exactly like the
solver gate).
"""

import json
from pathlib import Path

from calibration import machine_reference_seconds
from repro.experiments import run_serve_traffic
from repro.serve import JobState

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

TRAFFIC = dict(
    dataset="cora",
    scale=0.05,
    seed=0,
    n_jobs=24,
    n_distinct=4,
    workers=2,
    iters=25,
)


def test_bench_serve_traffic(benchmark):
    """Serve a synthetic burst; emits ``BENCH_serve.json``."""
    report = benchmark.pedantic(
        lambda: run_serve_traffic(**TRAFFIC), iterations=1, rounds=1
    )

    # the service-level invariants: every job completes, repeated pairs
    # hit the shared plan cache and share one solve per distinct pair,
    # BLAS runs the one-thread policy unless the environment sets the
    # team, and serving is pure scheduling (every job's plan is
    # bit-for-bit the direct engine's plan for its pair)
    assert report["completed"] == TRAFFIC["n_jobs"]
    assert report["failed"] == 0 and report["rejected"] == 0
    assert report["cache"]["hit_rate"] > 0.0
    # (None: a BLAS build the policy cannot see; tests/test_blas.py
    # covers the bundled-OpenBLAS wheels)
    assert report["blas_threads"] in (1, None) or report["blas_thread_env"]
    assert report["every_job_bitwise_equal"] is True
    # one solve per distinct request: the repeats share it
    assert report["solves"] == TRAFFIC["n_distinct"]
    assert report["shared_solves"] == TRAFFIC["n_jobs"] - TRAFFIC["n_distinct"]
    assert report["latency_ms"]["p50"] > 0.0
    assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"]

    payload = dict(report)
    payload["reference_seconds"] = machine_reference_seconds()
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert BENCH_JSON.exists()


def test_serve_handles_rejection_under_pressure():
    """Admission control sheds load gracefully at a tiny queue bound."""
    from repro.experiments.serve_traffic import serve_config, traffic_pairs
    from repro.serve import AdmissionPolicy, AlignmentService, wait_all

    pairs = traffic_pairs("cora", n_distinct=2, scale=0.03, seed=0)
    service = AlignmentService(
        serve_config(iters=10),
        policy=AdmissionPolicy(max_queue_depth=3),
        workers=1,
    )
    jobs = [
        service.submit(pairs[i % 2].source, pairs[i % 2].target)
        for i in range(6)
    ]
    rejected = [job for job in jobs if job.state is JobState.REJECTED]
    admitted = [job for job in jobs if job.state is not JobState.REJECTED]
    assert len(rejected) == 3  # the queue bound held
    assert all("queue full" in job.error for job in rejected)
    with service:
        assert wait_all(admitted, timeout=120)
    assert all(job.state is JobState.DONE for job in admitted)
