"""The benchmark's workloads, driven through the program's public APIs.

Every workload takes the run seed and derives all of its inputs from
it, builds them in the benchmark process, and hands the program only
the generated graphs.  One load-generating thread drives each of
them; the program's own workers (service threads, block-solve
processes) are the only other threads of work.

Nothing here caps BLAS threads, so the program's thread
oversubscription shows wherever its own threads overlap: on
serve-burst always, on serve-open and scale-pool by chance.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.scale.aligner as scale_aligner
from repro.core import SEMI_SYNTHETIC_CONFIG, SLOTAlignConfig
from repro.datasets import load_graph_dataset, make_semi_synthetic_pair
from repro.engine import AlignmentEngine, PlanCache
from repro.engine.evaluate import evaluate_alignment
from repro.experiments.serve_traffic import serve_config, traffic_pairs
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.scale import DivideAndConquerAligner, available_cpus, resolve_executor
from repro.serve import AlignmentService, JobState, wait_all

from measure import Op, plan_problems, tail

CORA_SCALE = 0.05
"""cora stand-in at 135 nodes: the semi-synthetic unit of work."""

EDGE_NOISE = 0.05

N_PAIRS = 4
"""Distinct pairs the serve workloads cycle over."""

SERVE_ITERS = 25

OPEN_RATE = 1.5
"""serve-open arrivals per second: about 40% of what the shipped
service completes per second on a 2-core machine, so the queue stays
shallow."""

DRAIN_FRACTION = 0.25
"""serve-open keeps its window open this share of ``--seconds`` past
the last arrival; jobs unfinished by then count as failed."""

BURST_JOBS = 24
MAX_BATCH = 8
BURST_TIMEOUT = 60.0

SCALE_CONFIG = SLOTAlignConfig(
    n_bases=2,
    structure_lr=0.1,
    max_outer_iter=60,
    sinkhorn_iter=40,
    track_history=False,
)
"""The scalability bench's solver profile."""

SCALE_PARTS = 8
SCALE_BLOCK = 120

SCALE_SPANS = {
    "kway_partition": "scale.partition",
    "assign_target": "scale.partition",
    "run_blocks": "scale.executor",
    "repair_plan": "scale.boundary",
}
"""Functions ``DivideAndConquerAligner.fit`` calls through its module,
and the layer span each call is recorded under in traced ops."""


def derive(seed: int, *keys: int) -> int:
    """A 31-bit input seed for stream ``keys`` of run ``seed``."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)[0]
    return int(state & 0x7FFFFFFF)


def arrival_schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Seeded Poisson-like arrivals: ``round(rate * seconds)`` jobs.

    The gaps are the exponential distribution's quantiles at evenly
    spaced levels, in an order the seed shuffles, rescaled to span the
    window.  Every run thus offers the same jobs with the same set of
    gap lengths; only where the short gaps cluster depends on the
    seed.  Independent draws would let the number of near-coincident
    arrivals, which decides how often jobs contend, vary from run to
    run far more than the program does.
    """
    count = max(1, round(rate * seconds))
    levels = (np.arange(count + 1) + 0.5) / (count + 1)
    gaps = np.random.default_rng(seed).permutation(-np.log1p(-levels) / rate)
    times = np.cumsum(gaps)
    return times[:-1] * (seconds / times[-1])


def cora_pair(seed: int):
    graph = load_graph_dataset("cora", scale=CORA_SCALE, seed=seed)
    return make_semi_synthetic_pair(graph, edge_noise=EDGE_NOISE, seed=seed + 1)


def sbm_pair(seed: int):
    graph = stochastic_block_model(
        [SCALE_BLOCK] * SCALE_PARTS, 0.3, 0.005, seed=seed
    )
    features = community_bag_of_words(
        graph.node_labels, 80, words_per_node=12, seed=seed + 1
    )
    return make_semi_synthetic_pair(
        graph.with_features(features), edge_noise=0.02, seed=seed + 2
    )


def span_if(traced: bool, tracer, name: str):
    return tracer.span(name) if traced else nullcontext()


def uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def portfolio_layers(results, shares) -> dict:
    """Solve-layer numbers from the ``extras`` each solved result reports.

    ``shares`` divides each result's phase totals: a coalesced batch
    reports the whole batch's lockstep totals on every member.
    """
    phases = {"pi_update": [], "alpha_update": [], "objective_eval": []}
    iters = useful = 0
    for result, share in zip(results, shares):
        timings = result.extras["phase_timings"]
        for phase, values in phases.items():
            values.append(timings[phase] / share)
        counts = result.extras["portfolio"]["iterations"]
        iters += sum(counts.values())
        useful += counts[result.extras["selected_start"]]
    return {
        "engine.solve.pi_update_s": mean(phases["pi_update"]),
        "engine.solve.alpha_update_s": mean(phases["alpha_update"]),
        "engine.solve.objective_eval_s": mean(phases["objective_eval"]),
        "engine.solve.outer_iters": iters / max(1, len(results)),
        "engine.solve.useful_iter_frac": useful / iters if iters else 0.0,
    }


def cache_layers(before: dict, after: dict, ops: int) -> dict:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return {
        "engine.planning.builds": (after["builds"] - before["builds"]) / ops,
        "engine.planning.hit_ratio": hits / lookups if lookups else 0.0,
    }


@dataclass
class Measured:
    ops: list[Op]
    wall: float
    layers: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


class Workload:
    """Set up once, then measure one window."""

    name = ""
    scored_ops = 0
    """Closed loops: ``hit1`` is the mean over this many first ops, and
    the window stays open until they are done, so it is the same for
    a seed however fast the ops run."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer) -> Measured:
        raise NotImplementedError

    def environment(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class FitCold(Workload):
    name = "fit-cold"
    scored_ops = 30

    def setup(self):
        pair = cora_pair(derive(self.seed, 0))
        self.engine = AlignmentEngine(SEMI_SYNTHETIC_CONFIG, decoder="hungarian")
        self.engine.run(pair.source, pair.target, ground_truth=pair.ground_truth)

    def measure(self, seconds, tracer):
        traced_engine = None
        if tracer is not None:
            traced_engine = AlignmentEngine(
                SEMI_SYNTHETIC_CONFIG, decoder="hungarian"
            )
            for stage in ("plan", "solve", "decode", "evaluate"):
                setattr(
                    traced_engine,
                    stage,
                    tracer.wrap(f"engine.{stage}", getattr(traced_engine, stage)),
                )
        cache = self.engine.cache
        before = cache.info()
        out = Measured([], 0.0)
        traced_runs = []
        end = time.perf_counter() + seconds
        index = 0
        while index < self.scored_ops or time.perf_counter() < end:
            pair = cora_pair(derive(self.seed, 1, index))
            traced = traced_engine is not None and index % 2 == 1
            engine = traced_engine if traced else self.engine
            if traced:
                tracer.op = index
            with span_if(traced, tracer, "op"):
                t0 = time.perf_counter()
                run = engine.run(
                    pair.source, pair.target, ground_truth=pair.ground_truth
                )
                latency = time.perf_counter() - t0
            out.wall += latency
            problems = plan_problems(
                run.result.plan, uniform(pair.source.n_nodes)
            )
            out.problems += [f"op {index}: {p}" for p in problems]
            hit1 = run.metrics["hits@1"] if index < self.scored_ops else None
            out.ops.append(Op(latency, not problems, hit1, traced))
            if traced:
                traced_runs.append(run)
            index += 1
        if tracer is not None:
            out.layers = self._layers(tracer, traced_runs)
            out.layers.update(cache_layers(before, cache.info(), len(out.ops)))
            out.notes["span_accounting"] = span_accounting(tracer)
        return out

    @staticmethod
    def _layers(tracer, runs) -> dict:
        basis = [run.result.extras["phase_timings"]["basis_build"] for run in runs]
        plan = [s.duration for s in tracer.by_name("engine.plan")]
        solve = [s.duration for s in tracer.by_name("engine.solve")]
        layers = {
            # bases are built lazily inside solve; the engine reports
            # their build time and bills it to planning, as here
            "engine.planning.busy_s": mean(p + b for p, b in zip(plan, basis)),
            "engine.solve.busy_s": mean(s - b for s, b in zip(solve, basis)),
            "engine.decode.busy_s": mean(
                s.duration for s in tracer.by_name("engine.decode")
            ),
            "engine.evaluate.busy_s": mean(
                s.duration for s in tracer.by_name("engine.evaluate")
            ),
        }
        layers.update(portfolio_layers([run.result for run in runs], [1] * len(runs)))
        return layers


def span_accounting(tracer) -> dict:
    """Share of traced op wall time in each stage span, plus the residual."""
    ops = [i for i, s in enumerate(tracer.spans) if s.name == "op"]
    total = sum(tracer.spans[i].duration for i in ops)
    if not ops:
        return {}
    shares = {}
    for span in tracer.spans:
        if span.parent in ops:
            shares[span.name] = shares.get(span.name, 0.0) + span.duration / total
    shares["residual"] = sum(tracer.self_time(i) for i in ops) / total
    shares["op_seconds"] = total
    return shares


class _Serve(Workload):
    """Shared set-up of the two serve workloads."""

    def __init__(self, seed):
        super().__init__(seed)
        self.service = None

    def _new_service(self) -> AlignmentService:
        self.cache = PlanCache()
        return AlignmentService(
            serve_config(SERVE_ITERS),
            cache=self.cache,
            workers=available_cpus(),
            max_batch=MAX_BATCH,
        )

    def setup(self):
        self.close()
        # the last pair is the warm-up request; the others are traffic
        pairs = traffic_pairs("cora", N_PAIRS + 1, CORA_SCALE, derive(self.seed, 2))
        self.pairs, warm = pairs[:N_PAIRS], pairs[N_PAIRS]
        self.service = self._new_service().start()
        job = self.service.submit(
            warm.source, warm.target, ground_truth=warm.ground_truth
        )
        if not job.wait(BURST_TIMEOUT) or job.state is not JobState.DONE:
            raise RuntimeError(f"warm-up job did not complete: {job.error}")

    def close(self):
        if self.service is not None:
            self.service.stop()
            self.service = None

    def environment(self):
        return {"service_workers": available_cpus(), "max_batch": MAX_BATCH}

    def _submit(self, index: int):
        pair = self.pairs[index % N_PAIRS]
        return self.service.submit(
            pair.source, pair.target, ground_truth=pair.ground_truth
        )

    def _check(self, jobs, out: Measured) -> None:
        """Score every job against a direct, uncached engine run.

        ``jobs`` holds ``(pair_index, due, job)``; each finished job's
        plan must equal its pair's direct plan bit for bit.
        """
        direct = []
        for number, pair in enumerate(self.pairs):
            plan = (
                AlignmentEngine(serve_config(SERVE_ITERS), cache=None)
                .align(pair.source, pair.target)
                .plan
            )
            out.problems += [
                f"direct plan {number}: {p}"
                for p in plan_problems(plan, uniform(pair.source.n_nodes))
            ]
            direct.append(plan)
        for index, (pair_index, due, job) in enumerate(jobs):
            if not job.done:
                out.ops.append(Op(None, False))
                continue
            latency = job.finished_at - due
            if job.state is not JobState.DONE:
                out.ops.append(Op(latency, False))
                continue
            equal = np.array_equal(job.result.result.plan, direct[pair_index])
            if not equal:
                out.problems.append(f"job {index}: plan differs from direct engine")
            out.ops.append(Op(latency, equal, job.result.metrics["hits@1"]))

    @staticmethod
    def _layers(tracer, jobs, before: dict, after: dict) -> dict:
        done = [job for _, _, job in jobs if job.state is JobState.DONE]
        if not done:
            return {}
        for job in done:
            parent = tracer.add("serve.job", job.submitted_at, job.finished_at)
            tracer.add("serve.queue", job.submitted_at, job.started_at, parent)
            tracer.add("serve.run", job.started_at, job.finished_at, parent)
        waits = [job.started_at - job.submitted_at for job in done]
        stages = [job.result.stage_seconds for job in done]
        solve = [st["solve"] / job.batch_size for st, job in zip(stages, done)]
        layers = {
            "serve.queue_wait_s_p50": statistics.median(waits),
            "serve.queue_wait_s_tail": tail(waits)[0],
            "serve.run_s_p50": statistics.median(
                job.finished_at - job.started_at for job in done
            ),
            "serve.batch_size_mean": mean(job.batch_size for job in done),
            "serve.coalesced_frac": mean(job.batch_size > 1 for job in done),
            "serve.solve_busy_s": mean(solve),
            "serve.plan_busy_s": mean(st["plan"] for st in stages),
            "engine.planning.busy_s": mean(st["plan"] for st in stages),
            "engine.solve.busy_s": mean(solve),
            "engine.evaluate.busy_s": mean(st["evaluate"] for st in stages),
        }
        layers.update(cache_layers(before, after, len(done)))
        layers["serve.cache_hit_ratio"] = layers["engine.planning.hit_ratio"]
        layers.update(
            portfolio_layers(
                [job.result.result for job in done],
                [job.batch_size for job in done],
            )
        )
        return layers


class ServeOpen(_Serve):
    """Open loop: jobs are due on a seeded schedule, late or not.

    Two jobs that overlap make both solves run ten to twenty times
    slower (two workers each driving two OpenBLAS threads on two
    cores), so a run's latencies depend on whether such an overlap
    cascades; runs of the same seed differ by 20% in the tail.
    """

    name = "serve-open"

    def measure(self, seconds, tracer):
        schedule = arrival_schedule(derive(self.seed, 3), OPEN_RATE, seconds)
        before = self.cache.info()
        jobs, late = [], []
        t0 = time.perf_counter()
        for index, offset in enumerate(schedule):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late.append(time.perf_counter() - due)
            jobs.append((index % N_PAIRS, due, self._submit(index)))
        close = t0 + seconds * (1.0 + DRAIN_FRACTION)
        for _, _, job in jobs:
            job.wait(max(0.0, close - time.perf_counter()))
        after = self.cache.info()
        finished = [job.finished_at for _, _, job in jobs if job.done]
        wall = (max(finished) if finished else close) - t0
        backlog = sum(not job.done for _, _, job in jobs)
        if backlog == 0:
            self.close()
        else:
            # stop() would drain the backlog first; the daemon workers
            # end with the process instead
            self.service = None
        out = Measured([], wall, notes={"backlog": backlog})
        self._check(jobs, out)
        out.notes["generator_late_s_max"] = max(late)
        if tracer is not None:
            out.layers = self._layers(tracer, jobs, before, after)
            out.layers["serve.generator_late_s_max"] = max(late)
        return out


class ServeBurst(_Serve):
    name = "serve-burst"

    def measure(self, seconds, tracer):
        self.close()
        jobs, walls = [], []
        counts = {"hits": 0, "misses": 0, "builds": 0}
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.service = self._new_service()
            due = time.perf_counter()
            burst = [(i % N_PAIRS, due, self._submit(i)) for i in range(BURST_JOBS)]
            self.service.start()
            finished = wait_all([job for _, _, job in burst], BURST_TIMEOUT)
            finished_at = [job.finished_at for _, _, job in burst if job.done]
            walls.append(max(finished_at, default=time.perf_counter()) - due)
            info = self.cache.info()  # each burst starts a fresh cache
            for key in counts:
                counts[key] += info[key]
            jobs += burst
            if not finished:
                self.service = None  # backlog: see ServeOpen.measure
                break
            self.close()
        out = Measured([], sum(walls), notes={"bursts": len(walls)})
        self._check(jobs, out)
        if tracer is not None:
            zero = dict.fromkeys(counts, 0)
            out.layers = self._layers(tracer, jobs, zero, counts)
        return out


@contextmanager
def traced_scale(tracer):
    """Record the scale layers' calls made by ``fit`` as spans."""
    originals = {name: getattr(scale_aligner, name) for name in SCALE_SPANS}
    for name, span in SCALE_SPANS.items():
        setattr(scale_aligner, name, tracer.wrap(span, originals[name]))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(scale_aligner, name, fn)


class ScaleBlocks(Workload):
    """Partitioned fits with the serial block executor.

    ``executor="auto"`` (a process pool on more than one CPU) is what
    :class:`ScalePool` runs; with two processes of two OpenBLAS threads
    each on two cores, about one fit in five runs eight to ten times
    slower, so no run short enough for this benchmark has a steady
    median.  The serial executor still runs every scale layer.
    """

    name = "scale-blocks"
    executor = "serial"
    scored_ops = 16

    def setup(self):
        pair = sbm_pair(derive(self.seed, 0))
        self.aligner = DivideAndConquerAligner(
            SCALE_CONFIG, n_parts=SCALE_PARTS, executor=self.executor
        )
        self.aligner.fit(pair.source, pair.target)

    def environment(self):
        return {"executor": resolve_executor(self.executor)}

    def measure(self, seconds, tracer):
        resolved = resolve_executor(self.executor)
        out = Measured([], 0.0)
        fits = []
        fallbacks = 0
        end = time.perf_counter() + seconds
        index = 0
        while index < self.scored_ops or time.perf_counter() < end:
            pair = sbm_pair(derive(self.seed, 1, index))
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.op = index
            with traced_scale(tracer) if traced else nullcontext():
                with span_if(traced, tracer, "op"):
                    t0 = time.perf_counter()
                    fit = self.aligner.fit(pair.source, pair.target)
                    latency = time.perf_counter() - t0
            with span_if(traced, tracer, "engine.evaluate"):
                hits = evaluate_alignment(fit, pair.ground_truth, ks=(1,))
            hit1 = hits["hits@1"] if index < self.scored_ops else None
            out.wall += latency
            fallbacks += fit.extras["executor"] != resolved
            mass = np.zeros(pair.source.n_nodes)
            for src, _ in fit.partitions:
                mass[src] = 1.0 / src.size
            problems = plan_problems(fit.plan, mass)
            out.problems += [f"op {index}: {p}" for p in problems]
            out.ops.append(Op(latency, not problems, hit1, traced))
            if traced:
                fits.append(fit)
            index += 1
        if tracer is not None and fits:
            out.layers = self._layers(tracer, fits, fallbacks)
        return out

    @staticmethod
    def _layers(tracer, fits, fallbacks) -> dict:
        n = len(fits)

        def per_op(span):
            return sum(s.duration for s in tracer.by_name(span)) / n

        blocks = [[r.runtime for r in fit.block_results] for fit in fits]
        results = [r for fit in fits for r in fit.block_results]
        layers = {
            "scale.partition.busy_s": per_op("scale.partition"),
            "scale.boundary.busy_s": per_op("scale.boundary"),
            "scale.boundary.patched": mean(
                fit.extras.get("repair", {}).get("n_patched", 0) for fit in fits
            ),
            "scale.executor.busy_s": per_op("scale.executor"),
            "scale.executor.block_s_sum": mean(sum(b) for b in blocks),
            "scale.executor.straggler_ratio": mean(
                max(b) / statistics.fmean(b) for b in blocks
            ),
            "scale.executor.serial_fallbacks": float(fallbacks),
            "engine.planning.busy_s": sum(
                r.extras["phase_timings"]["basis_build"] for r in results
            ) / n,
            "engine.solve.busy_s": sum(r.runtime for r in results) / n,
            "engine.evaluate.busy_s": per_op("engine.evaluate"),
        }
        solve = portfolio_layers(results, [1] * len(results))
        # per block above; per fit here, like every other workload
        for name in (
            "engine.solve.pi_update_s",
            "engine.solve.alpha_update_s",
            "engine.solve.objective_eval_s",
            "engine.solve.outer_iters",
        ):
            solve[name] *= len(results) / n
        layers.update(solve)
        return layers


class ScalePool(ScaleBlocks):
    """``scale-blocks`` with the shipped ``executor="auto"``."""

    name = "scale-pool"
    executor = "auto"


WORKLOADS = {
    cls.name: cls
    for cls in (FitCold, ServeOpen, ServeBurst, ScaleBlocks, ScalePool)
}
