"""Float64 parity of the dense portfolio backends against ``fused-dense``.

Every float64 dense backend runs the one checkpoint/prune scheduler
(:func:`repro.engine.restarts.run_portfolio`) and differs from the
reference only in how it advances the live restarts: in lockstep
(``batched-restart``) or on a thread pool of any width
(``threaded-restart``).  Scheduling must never change a result, so
each backend must reproduce the serial reference bit for bit: the
plan, the objective, the selected start and every pruning decision.
``tests/test_batched_restart.py`` compares whole trajectories of the
lockstep backend across further regimes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import SLOTAlignConfig
from repro.datasets import make_semi_synthetic_pair
from repro.engine import AlignmentEngine
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=30, sinkhorn_iter=20,
    track_history=False,
)

CONFIGS = {
    "default": FAST,
    "prune-10": replace(FAST, portfolio_prune_iter=10),
}

BACKENDS = [
    pytest.param("batched-restart", {}, id="batched-restart"),
    *(
        pytest.param(
            "threaded-restart", {"max_workers": width}, id=f"threaded-{width}"
        )
        for width in (1, 2, 4)
    ),
]


def bench_pair(seed):
    graph = stochastic_block_model([11] * 3, 0.35, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return make_semi_synthetic_pair(graph, edge_noise=0.2, seed=seed + 2)


def solve(pair, config, backend="fused-dense", backend_options=None):
    engine = AlignmentEngine(
        config, backend=backend, backend_options=backend_options, cache=None
    )
    return engine.align(pair.source, pair.target)


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("backend,options", BACKENDS)
def test_matches_fused_dense_bitwise(backend, options, config_name, seed):
    config = CONFIGS[config_name]
    pair = bench_pair(seed)
    reference = solve(pair, config)
    result = solve(pair, config, backend, options)
    if config_name == "prune-10":
        assert reference.extras["portfolio"]["pruned"], (
            "fixture no longer prunes, so pruning parity is untested"
        )
    np.testing.assert_array_equal(result.plan, reference.plan)
    assert result.extras["objective"] == reference.extras["objective"]
    assert result.extras["selected_start"] == reference.extras["selected_start"]
    assert (
        result.extras["portfolio"]["pruned"]
        == reference.extras["portfolio"]["pruned"]
    )
