"""Unified alignment engine: **plan → solve → decode → evaluate**.

Every alignment in the library decomposes into four explicit stages:

1. **plan** (:mod:`repro.engine.planning`) — multi-view base
   construction behind a content-keyed cache, the marginals and the
   initial coupling;
2. **solve** (:mod:`repro.engine.backends`) — a registry of solver
   backends: the reference serial ``fused-dense`` portfolio, its
   bitwise-equal lockstep (``batched-restart``) and thread-pool
   (``threaded-restart``) schedules, the float32 ``batched-f32``, the
   ``partial-*`` backends and the ``sparse`` divide-and-conquer
   pipeline;
3. **decode** (:mod:`repro.engine.decode`) — a registry of plan
   decoders (``row-argmax`` / ``mutual-argmax`` / ``hungarian`` /
   ``mea``) turning the transport-plan posterior into a discrete
   :class:`DecodedMatching`;
4. **evaluate** (:mod:`repro.engine.evaluate`) — one metric adapter
   for dense and CSR plans and decoded matchings.

``SLOTAlign.fit``, ``DivideAndConquerAligner``'s block solves, the
experiment drivers and the CLI are all thin shims over
:class:`AlignmentEngine`, so batching/caching/backends land once and
reach every workload.

Importing this package applies the process-wide BLAS thread policy
(:mod:`repro.engine.blas`): one thread for the OpenBLAS bundled with
NumPy and SciPy unless the environment sets ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS``.
"""

from repro.engine.planning import (
    PlanCache,
    PreparedProblem,
    feature_similarity_plan,
    graph_digest,
    prepare_problem,
    shared_plan_cache,
    view_spec,
)
from repro.engine.backends import (
    DEFAULT_BACKEND,
    available_backends,
    backend_kind,
    dense_backends,
    ensure_classical_problem,
    ensure_dense_backend,
    get_backend,
    partial_backends,
    register_backend,
)
from repro.engine.decode import (
    DEFAULT_DECODER,
    DecodedMatching,
    available_decoders,
    decode_plan,
    ensure_decoder,
    get_decoder,
    register_decoder,
)
from repro.engine.evaluate import evaluate_alignment, extract_plan
from repro.engine.pipeline import AlignmentEngine, EngineRun, align_pair
from repro.engine.precision import (
    DEFAULT_PRECISION,
    FLOAT32,
    FLOAT64,
    PRECISIONS,
    SolverPrecision,
    backend_for_precision,
    ensure_precision,
)
from repro.engine.blas import apply_blas_policy, blas_threads

apply_blas_policy()

__all__ = [
    "AlignmentEngine",
    "EngineRun",
    "DEFAULT_BACKEND",
    "DEFAULT_DECODER",
    "DEFAULT_PRECISION",
    "DecodedMatching",
    "FLOAT32",
    "FLOAT64",
    "PRECISIONS",
    "SolverPrecision",
    "backend_for_precision",
    "ensure_precision",
    "PlanCache",
    "PreparedProblem",
    "align_pair",
    "available_backends",
    "available_decoders",
    "backend_kind",
    "blas_threads",
    "decode_plan",
    "dense_backends",
    "ensure_classical_problem",
    "ensure_decoder",
    "ensure_dense_backend",
    "evaluate_alignment",
    "extract_plan",
    "feature_similarity_plan",
    "get_backend",
    "get_decoder",
    "graph_digest",
    "partial_backends",
    "prepare_problem",
    "register_backend",
    "register_decoder",
    "shared_plan_cache",
    "view_spec",
]
