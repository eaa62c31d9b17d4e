"""Tests for the decode stage (PR 9): plan → solve → **decode** → evaluate.

Covers the decoder registry (unknown names fail with a
:class:`ConfigError` naming the valid choices), the
:class:`DecodedMatching` contract, the **bitwise parity** of the
``row-argmax`` decoder with the pre-decode-stage evaluate path (dense
and CSR, ties included), permutation equivariance of every registered
decoder (matching *and* metrics), the hungarian decoder's shed-mass
square padding on non-square and partial plans — regressed against
:func:`repro.eval.metrics.unmatchable_detection` on a seeded partial
pair — the sparse (never-densifying) decode path through a
partitioned alignment, the alignment service's per-job decoder, and
the engine's decode-stage plumbing.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

from repro.core import SLOTAlignConfig
from repro.datasets import (
    PartialPairSpec,
    make_partial_pair,
    make_semi_synthetic_pair,
)
from repro.engine import (
    DEFAULT_DECODER,
    AlignmentEngine,
    DecodedMatching,
    PlanCache,
    available_decoders,
    decode_plan,
    ensure_decoder,
    evaluate_alignment,
    get_decoder,
)
from repro.engine.decode import UNMATCHABLE_THRESHOLD, shed_scores
from repro.eval.metrics import (
    evaluate_decoded,
    evaluate_plan,
    unmatchable_detection,
)
from repro.exceptions import ConfigError
from repro.graphs import stochastic_block_model
from repro.graphs.features import community_bag_of_words
from repro.serve import AlignmentService, wait_all

ALL_DECODERS = ("hungarian", "mea", "mutual-argmax", "row-argmax")
ONE_TO_ONE = ("hungarian", "mea", "mutual-argmax")

FAST = SLOTAlignConfig(
    n_bases=2, structure_lr=0.1, max_outer_iter=25, sinkhorn_iter=20,
    track_history=False,
)
#: single-restart profile for the partial solves (tier-1 stays fast)
TINY = replace(
    FAST, max_outer_iter=10, sinkhorn_iter=10,
    multi_start=False, single_start_view="node",
)


def base_graph(seed=0, n_per_block=10):
    graph = stochastic_block_model([n_per_block] * 3, 0.4, 0.02, seed=seed)
    feats = community_bag_of_words(
        graph.node_labels, 30, words_per_node=6, seed=seed + 1
    )
    graph = graph.with_features(feats)
    graph.node_labels = None
    return graph


def bench_pair(seed=0, n_per_block=10):
    return make_semi_synthetic_pair(base_graph(seed=seed), edge_noise=0.1, seed=seed + 2)


def balanced_plan(n, m=None, seed=0, iters=60):
    """Tie-free random plan with near-uniform marginals.

    Sinkhorn-style alternating normalisation, ending on the row
    projection (rows exactly uniform, like the solver's output) —
    shed gating stays silent, and continuous random entries make
    argmax/assignment optima almost surely unique.
    """
    m = n if m is None else m
    rng = np.random.default_rng(seed)
    plan = rng.random((n, m)) + 0.05
    for _ in range(iters):
        plan /= plan.sum(axis=0, keepdims=True)
        plan /= plan.sum(axis=1, keepdims=True)
    return plan / n


class TestRegistry:
    def test_builtin_decoders_registered(self):
        decoders = available_decoders()
        assert set(decoders) == set(ALL_DECODERS)
        assert all(decoders.values()), "every decoder needs a description"
        assert DEFAULT_DECODER in decoders

    def test_unknown_decoder_names_choices(self):
        for fn in (get_decoder, ensure_decoder):
            with pytest.raises(ConfigError, match="valid decoders.*hungarian"):
                fn("viterbi")
        with pytest.raises(ConfigError, match="row-argmax"):
            decode_plan(balanced_plan(4), "viterbi")

    def test_ensure_decoder_returns_the_name(self):
        assert ensure_decoder("mea") == "mea"

    def test_get_decoder_returns_fresh_instances(self):
        assert get_decoder("mea") is not get_decoder("mea")

    def test_engine_validates_decoder_at_decode_time(self):
        engine = AlignmentEngine(FAST, cache=None, decoder="not-a-decoder")
        with pytest.raises(ConfigError, match="valid decoders"):
            engine.decode(balanced_plan(4))


class TestDecodedMatching:
    @pytest.mark.parametrize("name", ALL_DECODERS)
    def test_contract_on_a_balanced_plan(self, name):
        plan = balanced_plan(9, seed=3)
        decoded = get_decoder(name).decode(plan)
        assert isinstance(decoded, DecodedMatching)
        assert decoded.decoder == name
        assert decoded.matching.shape == (9,)
        assert decoded.matching.dtype == np.int64
        assert np.all(decoded.matching >= -1)
        assert np.all(decoded.matching < 9)
        assert decoded.decode_seconds >= 0.0
        assert decoded.posterior_ranked is (name == "row-argmax")
        # confidence: the matched cell's share of its row mass
        assert decoded.confidence.shape == (9,)
        assert np.all(decoded.confidence >= 0.0)
        assert np.all(decoded.confidence <= 1.0)
        matched = decoded.matching >= 0
        assert np.all(decoded.confidence[~matched] == 0.0)
        assert np.all(decoded.confidence[matched] > 0.0)
        # shed scores: ~0 on a balanced plan, and always in [0, 1]
        for scores, size in (
            (decoded.source_unmatchable, 9),
            (decoded.target_unmatchable, 9),
        ):
            assert scores.shape == (size,)
            assert np.all((scores >= 0.0) & (scores <= 1.0))
            assert np.all(scores < UNMATCHABLE_THRESHOLD)
        # convenience accessors
        assert decoded.n_source == 9
        assert decoded.n_matched == int(matched.sum())
        pairs = decoded.matched_pairs()
        assert pairs.shape == (decoded.n_matched, 2)
        assert np.array_equal(decoded.matching[pairs[:, 0]], pairs[:, 1])

    @pytest.mark.parametrize("name", ONE_TO_ONE)
    def test_one_to_one_decoders_never_reuse_a_column(self, name):
        plan = balanced_plan(9, seed=3)
        matching = get_decoder(name).decode(plan).matching
        cols = matching[matching >= 0]
        assert np.unique(cols).size == cols.size

    def test_row_argmax_confidence_is_the_row_share(self):
        plan = balanced_plan(7, seed=4)
        decoded = get_decoder("row-argmax").decode(plan)
        expected = plan.max(axis=1) / plan.sum(axis=1)
        np.testing.assert_allclose(decoded.confidence, expected)


class TestDecoderContracts:
    def test_row_argmax_matches_every_row(self):
        plan = balanced_plan(11, seed=0)
        matching = get_decoder("row-argmax").decode(plan).matching
        assert np.all(matching >= 0)
        np.testing.assert_array_equal(matching, np.argmax(plan, axis=1))

    def test_mutual_argmax_is_a_subset_of_row_argmax(self):
        # rows 0 and 1 collide on column 2; column 2's argmax is row 0,
        # so row 1 must come out unmatched
        plan = np.full((4, 4), 0.1)
        plan[0, 2] = 0.9
        plan[1, 2] = 0.8
        plan[2, 0] = 0.9
        plan[3, 1] = 0.9
        row = get_decoder("row-argmax").decode(plan).matching
        mutual = get_decoder("mutual-argmax").decode(plan).matching
        kept = mutual >= 0
        np.testing.assert_array_equal(mutual[kept], row[kept])
        assert mutual[1] == -1
        assert mutual[0] == 2 and mutual[2] == 0 and mutual[3] == 1

    def test_hungarian_square_balanced_is_the_classical_assignment(self):
        plan = balanced_plan(10, seed=1)
        matching = get_decoder("hungarian").decode(plan).matching
        assert np.all(matching >= 0)
        rows, cols = scipy.optimize.linear_sum_assignment(plan, maximize=True)
        expected = np.full(10, -1, dtype=np.int64)
        expected[rows] = cols
        np.testing.assert_array_equal(matching, expected)

    def test_hungarian_wide_plan_matches_every_row(self):
        """Satellite 1: non-square padding must never truncate-unmatch."""
        plan = balanced_plan(8, 12, seed=2)
        matching = get_decoder("hungarian").decode(plan).matching
        assert np.all(matching >= 0)
        assert np.unique(matching).size == 8
        rows, cols = scipy.optimize.linear_sum_assignment(plan, maximize=True)
        expected = np.full(8, -1, dtype=np.int64)
        expected[rows] = cols
        np.testing.assert_array_equal(matching, expected)

    def test_hungarian_tall_plan_unmatches_only_by_feasibility(self):
        plan = balanced_plan(12, 8, seed=2)
        matching = get_decoder("hungarian").decode(plan).matching
        assert int(np.sum(matching >= 0)) == 8  # every column used
        rows, cols = scipy.optimize.linear_sum_assignment(plan, maximize=True)
        expected = np.full(12, -1, dtype=np.int64)
        expected[rows] = cols
        np.testing.assert_array_equal(matching, expected)

    @pytest.mark.parametrize("name", ("hungarian", "mea"))
    def test_condemned_rows_are_unmatched_and_gating_protects_the_rest(
        self, name
    ):
        plan = balanced_plan(8, seed=5)
        plan[3] *= 0.01   # shed fraction 0.99: condemned
        plan[4] *= 0.8    # shed fraction 0.20: below the gate
        frac_src, _ = shed_scores(plan)
        assert frac_src[3] >= UNMATCHABLE_THRESHOLD
        assert frac_src[4] < UNMATCHABLE_THRESHOLD
        matching = get_decoder(name).decode(plan).matching
        assert matching[3] == -1
        keep = np.arange(8) != 3
        assert np.all(matching[keep] >= 0)

    @pytest.mark.parametrize("name", ALL_DECODERS)
    @pytest.mark.parametrize("shape", [(10, 10), (8, 12)])
    def test_sparse_and_dense_plans_decode_identically(self, name, shape):
        plan = balanced_plan(*shape, seed=6)
        dense = get_decoder(name).decode(plan)
        sparse = get_decoder(name).decode(sp.csr_array(plan))
        assert sp.issparse(sparse.plan)
        np.testing.assert_array_equal(dense.matching, sparse.matching)
        # dense and CSR marginal sums differ in the last ulp: atol, not 0
        np.testing.assert_allclose(
            dense.confidence, sparse.confidence, atol=1e-12
        )
        np.testing.assert_allclose(
            dense.source_unmatchable, sparse.source_unmatchable, atol=1e-12
        )

    def test_shed_scores_recover_marginal_deficits(self):
        plan = np.diag([1.0, 0.5, 0.25])
        source, target = shed_scores(plan)
        np.testing.assert_allclose(source, [0.0, 0.5, 0.75])
        np.testing.assert_allclose(target, [0.0, 0.5, 0.75])


class TestRowArgmaxParity:
    """Satellite 3: the default decode route is the old path, bit for bit."""

    def test_bitwise_parity_on_a_solved_plan(self):
        pair = bench_pair(seed=0)
        result = AlignmentEngine(FAST, cache=None).align(
            pair.source, pair.target
        )
        gt = pair.ground_truth
        base = evaluate_alignment(result, gt)
        routed = evaluate_alignment(result, gt, decoder="row-argmax")
        assert base == routed  # float equality: bitwise, not allclose

    def test_bitwise_parity_on_csr(self):
        pair = bench_pair(seed=1)
        result = AlignmentEngine(FAST, cache=None).align(
            pair.source, pair.target
        )
        csr = sp.csr_array(result.plan)
        gt = pair.ground_truth
        assert evaluate_alignment(csr, gt) == evaluate_alignment(
            csr, gt, decoder="row-argmax"
        )

    def test_bitwise_parity_under_ties(self):
        plan = np.ones((5, 7))
        gt = np.stack([np.arange(5), np.arange(5)], axis=1)
        assert evaluate_plan(plan, gt) == evaluate_alignment(
            plan, gt, decoder="row-argmax"
        )

    def test_engine_run_parity_and_stage_accounting(self):
        pair = bench_pair(seed=2)
        plain = AlignmentEngine(FAST, cache=None).run(
            pair.source, pair.target, pair.ground_truth
        )
        routed = AlignmentEngine(FAST, cache=None, decoder="row-argmax").run(
            pair.source, pair.target, pair.ground_truth
        )
        assert plain.metrics == routed.metrics
        assert plain.decoded is None
        assert "decode" not in plain.stage_seconds
        assert routed.decoded is not None
        assert routed.decoded.posterior_ranked
        assert "decode" in routed.stage_seconds

    def test_already_decoded_results_refuse_a_second_decoder(self):
        decoded = decode_plan(balanced_plan(6, seed=7))
        gt = np.stack([np.arange(6), np.arange(6)], axis=1)
        with pytest.raises(ValueError, match="already decoded"):
            evaluate_alignment(decoded, gt, decoder="hungarian")


class TestPermutationEquivariance:
    """Satellite 2: relabelling both graphs permutes the matching."""

    @pytest.mark.parametrize("name", ALL_DECODERS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matching_is_equivariant(self, name, seed):
        n, m = 11, 13
        plan = balanced_plan(n, m, seed=seed)
        rng = np.random.default_rng(seed + 100)
        ps, pt = rng.permutation(n), rng.permutation(m)
        inv_pt = np.argsort(pt)
        base = get_decoder(name).decode(plan).matching
        permuted = get_decoder(name).decode(plan[np.ix_(ps, pt)]).matching
        expected = np.where(
            base[ps] >= 0, inv_pt[np.maximum(base[ps], 0)], -1
        )
        np.testing.assert_array_equal(permuted, expected)

    @pytest.mark.parametrize("name", ALL_DECODERS)
    def test_metrics_are_invariant(self, name):
        n, m = 11, 13
        plan = balanced_plan(n, m, seed=2)
        rng = np.random.default_rng(42)
        gt = np.stack([np.arange(n), rng.permutation(m)[:n]], axis=1)
        ps, pt = rng.permutation(n), rng.permutation(m)
        inv_ps, inv_pt = np.argsort(ps), np.argsort(pt)
        gt_perm = np.stack([inv_ps[gt[:, 0]], inv_pt[gt[:, 1]]], axis=1)
        base = evaluate_decoded(get_decoder(name).decode(plan), gt)
        permuted = evaluate_decoded(
            get_decoder(name).decode(plan[np.ix_(ps, pt)]), gt_perm
        )
        assert set(base) == set(permuted)
        for key in base:
            # summation order over the gt pairs changes: allclose
            np.testing.assert_allclose(permuted[key], base[key], rtol=1e-9)


@pytest.fixture(scope="module")
def partial_case():
    """One seeded partial pair solved by both partial backends."""
    graph = base_graph()
    pair = make_partial_pair(
        graph, PartialPairSpec(overlap=0.7), edge_noise=0.05, seed=1
    )
    cfg = replace(TINY, partial_mass=pair.overlap_fraction)
    results = {
        backend: AlignmentEngine(cfg, backend=backend, cache=None).align(
            pair.source, pair.target
        )
        for backend in ("partial-dummy", "partial-unbalanced")
    }
    return pair, results


class TestPartialDecoding:
    """Satellite 1: unmatchable detection as a decoder concern."""

    def test_fixture_exercises_the_nonsquare_path(self, partial_case):
        pair, results = partial_case
        assert pair.source.n_nodes != pair.target.n_nodes
        for result in results.values():
            condemned = (
                shed_scores(result.plan)[0] >= UNMATCHABLE_THRESHOLD
            )
            assert condemned.any(), "fixture no longer sheds any row"

    @pytest.mark.parametrize(
        "backend", ("partial-dummy", "partial-unbalanced")
    )
    def test_hungarian_unmatches_exactly_the_condemned_rows(
        self, partial_case, backend
    ):
        _, results = partial_case
        decoded = decode_plan(results[backend], "hungarian")
        condemned = decoded.source_unmatchable >= UNMATCHABLE_THRESHOLD
        np.testing.assert_array_equal(condemned, decoded.matching < 0)

    def test_mea_unmatch_set_covers_the_condemned_rows(self, partial_case):
        _, results = partial_case
        decoded = decode_plan(results["partial-dummy"], "mea")
        condemned = decoded.source_unmatchable >= UNMATCHABLE_THRESHOLD
        assert np.all(~condemned | (decoded.matching < 0))

    @pytest.mark.parametrize(
        "backend", ("partial-dummy", "partial-unbalanced")
    )
    def test_regression_against_unmatchable_detection(
        self, partial_case, backend
    ):
        """The decoder's unmatch decision IS the detector's threshold
        call: flagging by shed score at ``UNMATCHABLE_THRESHOLD`` and
        flagging by the hungarian unmatched set give identical
        precision/recall on the seeded pair."""
        pair, results = partial_case
        decoded = decode_plan(results[backend], "hungarian")
        by_score = unmatchable_detection(
            decoded.source_unmatchable,
            pair.source_matchable,
            threshold=UNMATCHABLE_THRESHOLD,
        )
        by_decoder = unmatchable_detection(
            (decoded.matching < 0).astype(float),
            pair.source_matchable,
            threshold=0.5,
        )
        assert by_decoder["n_flagged"] == by_score["n_flagged"]
        assert by_decoder["precision"] == by_score["precision"]
        assert by_decoder["recall"] == by_score["recall"]

    def test_partial_results_evaluate_through_any_decoder(self, partial_case):
        pair, results = partial_case
        report = evaluate_alignment(
            results["partial-dummy"], pair.ground_truth, decoder="hungarian"
        )
        assert set(report) == {"hits@1", "hits@5", "hits@10", "hits@30", "mrr"}
        assert 0.0 <= report["hits@1"] <= 100.0


class TestSparsePartitionedDecode:
    def test_partitioned_alignment_decodes_without_densifying(self):
        pair = bench_pair(seed=3, n_per_block=12)
        engine = AlignmentEngine(
            FAST,
            backend="sparse",
            cache=None,
            backend_options={"n_parts": 2, "executor": "serial"},
        )
        result = engine.align(pair.source, pair.target)
        assert sp.issparse(result.plan)
        for name in ("row-argmax", "hungarian"):
            decoded = decode_plan(result, name)
            assert sp.issparse(decoded.plan)
            assert decoded.matching.shape == (pair.source.n_nodes,)
            report = evaluate_decoded(decoded, pair.ground_truth, ks=(1, 5))
            assert 0.0 <= report["hits@1"] <= 100.0


class TestServeDecoder:
    def test_per_job_decoder_runs_after_the_solve(self):
        """Two jobs on the same pair with different decoders get the
        same solved plan; the decode stage runs per job."""
        pair = bench_pair(seed=4)
        service = AlignmentService(FAST, cache=PlanCache(), workers=1)
        plain = service.submit(
            pair.source, pair.target, ground_truth=pair.ground_truth
        )
        hung = service.submit(
            pair.source, pair.target, ground_truth=pair.ground_truth,
            decoder="hungarian",
        )
        with service:
            assert wait_all([plain, hung], timeout=120)
        assert plain.result.decoded is None
        assert hung.result.decoded is not None
        assert hung.result.decoded.decoder == "hungarian"
        np.testing.assert_array_equal(
            plain.result.result.plan, hung.result.result.plan
        )
        assert set(plain.result.metrics) == set(hung.result.metrics)

    def test_service_default_decoder_and_per_job_override(self):
        pair = bench_pair(seed=5)
        service = AlignmentService(
            FAST, cache=PlanCache(), workers=1, decoder="mutual-argmax"
        )
        inherited = service.submit(pair.source, pair.target)
        overridden = service.submit(
            pair.source, pair.target, decoder="row-argmax"
        )
        with service:
            assert wait_all([inherited, overridden], timeout=120)
        assert inherited.result.decoded.decoder == "mutual-argmax"
        assert overridden.result.decoded.decoder == "row-argmax"

    def test_unknown_decoder_rejected_before_the_queue(self):
        pair = bench_pair(seed=6)
        with pytest.raises(ConfigError, match="valid decoders"):
            AlignmentService(FAST, cache=PlanCache(), decoder="nope")
        service = AlignmentService(FAST, cache=PlanCache())
        with pytest.raises(ConfigError, match="valid decoders"):
            service.submit(pair.source, pair.target, decoder="nope")
