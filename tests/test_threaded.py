"""Tests for the threaded shared-memory restart strategy (PR 10).

The load-bearing property is that threading is *pure scheduling*: at
any worker count the float64 mode is bit-for-bit ``fused-dense``
(``tests/test_portfolio_parity.py``) and the float32 mode is
bit-for-bit ``batched-f32`` — each restart's
trajectory is a deterministic function of its own state, and per-thread
workspaces (the :class:`~repro.ot.workspace.WorkspaceArena`) keep
float32 scratch unshared.  The >1 speedup claim is only assertable on
real multi-core hardware, so that test gates on ``available_cpus()``.
"""

import time

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import AlignmentEngine, blas_threads
from repro.engine.threaded import ThreadedRestartBackend
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.ot.workspace import WorkspaceArena
from repro.scale.executor import available_cpus

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=30, sinkhorn_iter=20,
    track_history=False,
)


def bench_pair(seed=0, n_per_block=11):
    graph = stochastic_block_model([n_per_block] * 3, 0.35, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.2, seed=seed + 2)


def solve(pair, config=FAST, **engine_kwargs):
    engine = AlignmentEngine(config, cache=None, **engine_kwargs)
    return engine.align(pair.source, pair.target)


class TestBitwiseContract:
    def test_float32_is_bitwise_the_serial_f32_at_forced_width(self):
        """Width 3 gives the bits of the serial float32 schedule (width
        1, one run at a time, no pool) and of lockstep ``batched-f32``."""
        pair = bench_pair(seed=1)
        serial = solve(
            pair, backend="threaded-restart",
            backend_options={"max_workers": 1, "precision": "float32"},
        )
        batched = solve(pair, backend="batched-f32")
        threaded = solve(
            pair, backend="threaded-restart",
            backend_options={"max_workers": 3, "precision": "float32"},
        )
        assert serial.extras["threading"]["workers"] == 1
        assert threaded.extras["threading"]["workers"] == 3
        for anchor in (serial, batched):
            np.testing.assert_array_equal(anchor.plan, threaded.plan)
            assert threaded.extras["objective"] == anchor.extras["objective"]
            assert (
                threaded.extras["selected_start"]
                == anchor.extras["selected_start"]
            )


class TestThreadingSurface:
    def test_extras_report_the_pool_shape(self):
        pair = bench_pair(seed=0)
        result = solve(
            pair, backend="threaded-restart",
            backend_options={"max_workers": 2},
        )
        info = result.extras["threading"]
        assert set(info) == {
            "workers", "requested_workers", "cpus", "blas_threads",
        }
        assert info["requested_workers"] == 2
        assert info["workers"] == 2
        assert info["cpus"] == available_cpus()
        assert info["blas_threads"] == blas_threads()
        assert result.extras["precision"] == "float64"

    def test_default_width_is_capped_by_cpus_and_restarts(self):
        backend = ThreadedRestartBackend()
        assert backend._worker_count(8) == min(8, available_cpus())
        assert backend._worker_count(1) == 1
        assert ThreadedRestartBackend(max_workers=16)._worker_count(4) == 4

    def test_single_worker_runs_without_a_pool(self):
        pair = bench_pair(seed=0)
        result = solve(
            pair, backend="threaded-restart",
            backend_options={"max_workers": 1},
        )
        assert result.extras["threading"]["workers"] == 1

    def test_shared_arena_is_reusable_across_solves(self):
        arena = WorkspaceArena()
        pair = bench_pair(seed=0)
        backend_options = {
            "max_workers": 2, "precision": "float32", "arena": arena,
        }
        first = solve(pair, backend="threaded-restart",
                      backend_options=backend_options)
        second = solve(pair, backend="threaded-restart",
                       backend_options=backend_options)
        np.testing.assert_array_equal(first.plan, second.plan)
        assert len(arena.workspaces()) >= 1


@pytest.mark.skipif(
    available_cpus() < 4,
    reason="speedup is only a hardware fact on >= 4 real cores",
)
class TestSpeedup:
    def test_threaded_portfolio_beats_the_serial_loop(self):
        """Acceptance gate: >= 1.5x on a 4-restart portfolio when the
        hardware actually has cores to fan out over."""
        pair = bench_pair(seed=0, n_per_block=20)
        cfg = SLOTAlignConfig(
            n_bases=2, structure_lr=0.1, max_outer_iter=80,
            sinkhorn_iter=30, track_history=False,
        )

        def timed(**engine_kwargs):
            best = float("inf")
            for _ in range(3):
                engine = AlignmentEngine(cfg, cache=None, **engine_kwargs)
                t0 = time.perf_counter()
                out = engine.align(pair.source, pair.target)
                best = min(best, time.perf_counter() - t0)
            return best, out

        serial_seconds, serial_out = timed()
        threaded_seconds, threaded_out = timed(
            backend="threaded-restart",
            backend_options={"max_workers": 4},
        )
        np.testing.assert_array_equal(serial_out.plan, threaded_out.plan)
        assert serial_seconds / threaded_seconds >= 1.5
