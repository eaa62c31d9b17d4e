"""Synthetic-traffic driver for the alignment service.

Models the serving workload the ROADMAP's alignment-as-a-service item
describes: a burst of small alignment requests over a handful of
*distinct* pairs, each pair requested repeatedly.  Repetition
exercises the shared plan cache (content-equal graphs hit the same
entry regardless of which job carries them) and solve sharing (one
solve per distinct request).  The report carries the service-level
numbers the benchmark gates on — pairs/sec, cache hit rate, solves
run, latency percentiles, the BLAS team size — plus a **bitwise
fidelity check**: every job's served plan must be bit-for-bit
identical to a direct single-pair :class:`AlignmentEngine` run of its
pair.

Run:  ``python -m repro serve <dataset>``
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import SLOTAlignConfig
from repro.datasets import load_graph_dataset, make_semi_synthetic_pair
from repro.engine import AlignmentEngine, PlanCache
from repro.engine.blas import thread_env
from repro.scale import available_cpus
from repro.serve import AlignmentService, wait_all


def serve_config(iters: int = 25) -> SLOTAlignConfig:
    """The solver profile served traffic runs under.

    Short-budget, history-free: serving latency is dominated by the
    solve loop, and the bitwise contract holds at any budget.
    """
    return SLOTAlignConfig(
        n_bases=2,
        structure_lr=0.1,
        max_outer_iter=iters,
        sinkhorn_iter=20,
        track_history=False,
    )


def traffic_pairs(
    dataset: str, n_distinct: int, scale: float, seed: int
) -> list:
    """``n_distinct`` same-shape pairs from one dataset stand-in.

    All pairs share the base graph (and therefore plan shape) but use
    distinct perturbation seeds, so their targets are distinct cache
    entries while repeated requests for the same pair are exact cache
    hits.
    """
    graph = load_graph_dataset(dataset, scale=scale)
    return [
        make_semi_synthetic_pair(graph, edge_noise=0.05, seed=seed + i)
        for i in range(n_distinct)
    ]


def run_serve_traffic(
    dataset: str = "cora",
    scale: float = 0.05,
    seed: int = 0,
    n_jobs: int = 24,
    n_distinct: int = 4,
    workers: int = 2,
    iters: int = 25,
) -> dict:
    """Drive the service with a synthetic burst and report its stats.

    Jobs are submitted round-robin over ``n_distinct`` pairs *before*
    the workers start, so every worker finds a full backlog.
    """
    config = serve_config(iters)
    pairs = traffic_pairs(dataset, n_distinct, scale, seed)
    cache = PlanCache()
    service = AlignmentService(config, cache=cache, workers=workers)
    jobs = []
    for index in range(n_jobs):
        pair = pairs[index % n_distinct]
        jobs.append(
            service.submit(
                pair.source, pair.target, tag=f"pair-{index % n_distinct}"
            )
        )
    t0 = time.perf_counter()
    with service:
        finished = wait_all(jobs, timeout=600)
    serve_seconds = time.perf_counter() - t0
    if not finished:
        raise RuntimeError("serve traffic did not finish within 600s")

    stats = service.stats()
    info = cache.info()
    lookups = info["hits"] + info["misses"]
    latency = stats["latency_seconds"]

    # fidelity: every served plan must be bit-for-bit what a direct
    # single-pair engine run of its pair produces (the worker pool,
    # cache and solve sharing are pure scheduling)
    direct = [
        AlignmentEngine(config, cache=None).align(pair.source, pair.target).plan
        for pair in pairs
    ]
    equal = [
        bool(np.array_equal(job.result.result.plan, direct[index % n_distinct]))
        for index, job in enumerate(jobs)
    ]

    completed = stats["completed"]
    return {
        "dataset": dataset,
        "scale": scale,
        "n_jobs": n_jobs,
        "n_distinct": n_distinct,
        "workers": workers,
        "iters": iters,
        "n_nodes": pairs[0].source.n_nodes,
        "completed": completed,
        "failed": stats["failed"],
        "rejected": stats["rejected"],
        "solves": stats["solves"],
        "shared_solves": stats["shared_solves"],
        "serve_seconds": serve_seconds,
        "pairs_per_second": completed / serve_seconds,
        "latency_ms": {
            "p50": 1e3 * latency["p50"] if latency["p50"] else None,
            "p99": 1e3 * latency["p99"] if latency["p99"] else None,
            "mean": 1e3 * latency["mean"] if latency["mean"] else None,
        },
        "cache": {
            "hits": info["hits"],
            "misses": info["misses"],
            "builds": info["builds"],
            "hit_rate": info["hits"] / lookups if lookups else 0.0,
        },
        "every_job_bitwise_equal": all(equal),
        "cpu_count": available_cpus(),
        "blas_threads": stats["blas_threads"],
        "blas_thread_env": thread_env(),
    }


def format_serve_report(report: dict) -> str:
    """Human-readable rendering of a traffic report for the CLI."""
    latency = report["latency_ms"]
    cache = report["cache"]
    lines = [
        f"dataset            {report['dataset']} "
        f"(scale={report['scale']}, n={report['n_nodes']})",
        f"traffic            {report['n_jobs']} jobs over "
        f"{report['n_distinct']} distinct pairs",
        f"service            {report['workers']} workers, "
        f"{report['blas_threads']} BLAS thread(s) each",
        f"completed          {report['completed']} "
        f"(failed={report['failed']}, rejected={report['rejected']})",
        f"solves             {report['solves']} for {report['n_jobs']} jobs",
        f"pairs/sec          {report['pairs_per_second']:.2f}",
        f"latency p50        {latency['p50']:.1f} ms",
        f"latency p99        {latency['p99']:.1f} ms",
        f"cache hit rate     {cache['hit_rate']:.2%} "
        f"({cache['hits']} hits / {cache['builds']} builds)",
        f"bitwise vs direct  "
        f"{'OK' if report['every_job_bitwise_equal'] else 'MISMATCH'}",
    ]
    return "\n".join(lines)
