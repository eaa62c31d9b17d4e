"""Property tests for the opt-in float32 solve mode (PR 10).

Three contracts keep reduced precision honest:

* **routing** — ``precision="float64"`` is the identity (requests
  reach the bitwise-pinned reference backends untouched), while
  ``"float32"`` routes to the separately-registered ``batched-f32``
  backend (or float32 ``threaded-restart``), erroring with the
  choice-naming message on backends that have no reduced-precision
  variant;
* **equivalence** — the float32 one-run-at-a-time (threaded) and
  lockstep (batched) schedules are bitwise-identical to each other
  (the per-slice GEMM/Sinkhorn contracts), so scheduling never
  compounds the precision change;
* **parity** — float32 tracks the float64 reference within the
  documented Hit@1/MRR band on seeded pairs, and the final plan is
  always returned re-cast to float64 with float64 objective values.
"""

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import (
    AlignmentEngine,
    DEFAULT_PRECISION,
    backend_for_precision,
    ensure_precision,
)
from repro.engine.precision import (
    FLOAT32,
    FLOAT64,
    HIT1_PARITY_POINTS,
    SolverPrecision,
)
from repro.exceptions import ConfigError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.ot.sinkhorn import F32_SINKHORN_TOL

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


class TestPrecisionModel:
    def test_ensure_precision_resolves_names_and_instances(self):
        assert ensure_precision("float64") is FLOAT64
        assert ensure_precision("float32") is FLOAT32
        assert ensure_precision(FLOAT32) is FLOAT32
        assert DEFAULT_PRECISION == "float64"

    def test_unknown_precision_names_the_choices(self):
        with pytest.raises(ConfigError, match="float32.*float64"):
            ensure_precision("float16")

    def test_float64_applies_no_tolerance_floor(self):
        assert FLOAT64.effective_sinkhorn_tol(1e-9) == 1e-9
        assert FLOAT64.effective_sinkhorn_tol(0.0) == 0.0

    def test_float32_floors_the_sinkhorn_tolerance(self):
        assert FLOAT32.effective_sinkhorn_tol(1e-9) == F32_SINKHORN_TOL
        # an explicit "no convergence checks" is preserved as-is
        assert FLOAT32.effective_sinkhorn_tol(0.0) == 0.0
        # tolerances already above the floor pass through
        assert FLOAT32.effective_sinkhorn_tol(1e-3) == 1e-3

    def test_precision_dtype_is_not_part_of_the_repr(self):
        assert "dtype" not in repr(SolverPrecision("x", np.dtype("f4"), 0.0))

    def test_float64_routing_is_the_identity(self):
        for backend in ("fused-dense", "batched-restart", "sparse",
                        "partial-dummy", "threaded-restart"):
            assert backend_for_precision(backend, "float64") == (backend, {})

    @pytest.mark.parametrize(
        "requested,expected",
        [
            ("fused-dense", ("batched-f32", {})),
            ("batched-restart", ("batched-f32", {})),
            ("batched-f32", ("batched-f32", {})),
            ("threaded-restart", ("threaded-restart", {"precision": "float32"})),
        ],
    )
    def test_float32_routing_table(self, requested, expected):
        assert backend_for_precision(requested, "float32") == expected

    def test_float32_route_for_unrouted_backend_names_the_routable(self):
        with pytest.raises(ConfigError, match="batched-f32"):
            backend_for_precision("sparse", "float32")
        with pytest.raises(ConfigError):
            backend_for_precision("partial-dummy", "float32")


class TestEngineRouting:
    def test_default_engine_precision_is_bitwise_the_reference(self):
        """``--precision float64`` must route to the pinned reference
        backends completely unchanged."""
        pair = bench_pair(seed=0)
        reference = solve(pair)
        routed = solve(pair, precision="float64")
        np.testing.assert_array_equal(reference.plan, routed.plan)
        assert routed.extras["backend"] == "fused-dense"
        assert "precision" not in routed.extras

    def test_float32_routes_to_the_fast_batched_backend(self):
        pair = bench_pair(seed=0)
        result = solve(pair, precision="float32")
        assert result.extras["backend"] == "batched-f32"
        assert result.extras["precision"] == "float32"
        assert result.plan.dtype == np.float64  # outcomes are re-cast
        assert np.all(np.isfinite(result.plan))

    def test_unknown_precision_fails_at_engine_construction(self):
        with pytest.raises(ConfigError):
            AlignmentEngine(FAST, precision="float16")

    def test_unrouted_backend_with_float32_fails_at_solve(self):
        pair = bench_pair(seed=0)
        engine = AlignmentEngine(
            FAST, backend="partial-dummy", cache=None,
            precision="float32",
        )
        with pytest.raises(ConfigError, match="no float32 variant"):
            engine.align(pair.source, pair.target)

    def test_explicit_backend_options_win_over_route_extras(self):
        """threaded-restart under float32 gets its precision from the
        route; an explicit option must not be silently overridden."""
        pair = bench_pair(seed=1)
        result = solve(
            pair, backend="threaded-restart", precision="float32",
        )
        assert result.extras["precision"] == "float32"
        assert result.extras["backend"] == "threaded-restart"


class TestFloat32Equivalence:
    """All float32 schedules produce the same bits."""

    def test_serial_and_batched_f32_are_bitwise_equal(self):
        """threaded-restart at width 1 steps one run at a time with no
        pool: the serial float32 schedule."""
        pair = bench_pair(seed=0)
        serial = solve(
            pair, backend="threaded-restart",
            backend_options={"precision": "float32", "max_workers": 1},
        )
        batched = solve(pair, backend="batched-f32")
        assert serial.extras["threading"]["workers"] == 1
        np.testing.assert_array_equal(serial.plan, batched.plan)
        assert serial.extras["objective"] == batched.extras["objective"]
        assert (
            serial.extras["selected_start"] == batched.extras["selected_start"]
        )

    def test_threaded_f32_is_bitwise_the_serial_f32(self):
        """A two-thread pool gives the bits of the serial float32
        schedule (threaded-restart at width 1)."""
        pair = bench_pair(seed=0)
        serial = solve(
            pair, backend="threaded-restart",
            backend_options={"precision": "float32", "max_workers": 1},
        )
        threaded = solve(
            pair, backend="threaded-restart",
            backend_options={"precision": "float32", "max_workers": 2},
        )
        assert threaded.extras["threading"]["workers"] == 2
        np.testing.assert_array_equal(serial.plan, threaded.plan)
        assert threaded.extras["objective"] == serial.extras["objective"]


class TestFloat32Parity:
    """Satellite: f32 within the documented band of f64 on seeded pairs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hit1_and_mrr_parity(self, seed):
        pair = bench_pair(seed=seed)
        engine64 = AlignmentEngine(FAST, cache=None)
        engine32 = AlignmentEngine(FAST, cache=None, precision="float32")
        report64 = engine64.evaluate(
            engine64.align(pair.source, pair.target),
            pair.ground_truth, ks=(1, 5),
        )
        report32 = engine32.evaluate(
            engine32.align(pair.source, pair.target),
            pair.ground_truth, ks=(1, 5),
        )
        assert abs(report32["hits@1"] - report64["hits@1"]) <= (
            HIT1_PARITY_POINTS
        )
        assert abs(report32["mrr"] - report64["mrr"]) * 100.0 <= (
            HIT1_PARITY_POINTS
        )

    def test_plans_agree_to_float32_resolution(self):
        pair = bench_pair(seed=0)
        plan64 = solve(pair).plan
        plan32 = solve(pair, precision="float32").plan
        relative = np.abs(plan32 - plan64).sum() / np.abs(plan64).sum()
        assert relative < 1e-4

    def test_float32_objective_is_evaluated_in_float64(self):
        """Selection decisions use float64 objective values recomputed
        from the float32 iterate — exact equality with the objective
        of the returned (re-cast) plan."""
        pair = bench_pair(seed=0)
        result = solve(pair, precision="float32")
        assert isinstance(result.extras["objective"], float)
        for value in result.extras["start_objectives"].values():
            assert isinstance(value, float)
