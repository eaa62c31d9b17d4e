"""Solver precision model: the opt-in float32 fast path.

Every reference backend (``fused-dense``, ``batched-restart``,
``threaded-restart``) iterates in float64 and is bitwise-pinned.  The
float32 mode trades that determinism contract for speed on the
``pi_update`` hot path, under three rules that keep it honest:

1. **New names, never replacements.**  ``float32`` routes to the
   separately-registered ``batched-f32`` backend (and flips
   ``threaded-restart`` into its reduced-precision mode); ``float64``
   returns the requested backend untouched, so the pinned reference
   paths cannot be reached through a precision knob.
2. **Decisions stay float64.**  Portfolio pruning and final selection
   compare objective values re-evaluated in float64 from the float32
   iterate (:meth:`repro.engine.mixed.MixedRun.current_objective`), so
   reduced precision never changes *which* restart survives for
   reasons of accumulated rounding in the score itself.
3. **Tolerance floors.**  The float64 defaults (``sinkhorn_tol=1e-9``,
   marginal violations measured in L1) sit far below float32
   resolution — a float32 Sinkhorn loop can never satisfy them and
   would silently burn its full inner budget every projection.  The
   float32 mode therefore floors the inner tolerance at
   :data:`F32_SINKHORN_TOL`; an explicit ``sinkhorn_tol=0`` (no
   convergence checks) is preserved as-is.

When is float32 safe?  The alternating scheme is a fixed-point
iteration, not an accumulation: each outer step re-projects onto the
simplex/polytope, so rounding does not compound across iterations.
Plans at bench scale hold entries of order ``1/n² ≈ 1e-4`` against a
float32 epsilon of ``~1e-7`` — three decimal digits of headroom per
entry — and the decode stage consumes row-relative *order*, not exact
mass.  Expect matching Hit@1/MRR to within ~:data:`HIT1_PARITY_POINTS`
points on converged solves; use float64 whenever bitwise
reproducibility, objective values below ``1e-6`` resolution, or
ill-conditioned (near-degenerate) structure bases are in play.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError
from repro.ot.sinkhorn import F32_SINKHORN_TOL

#: Documented Hit@1 / (100·MRR) parity budget, in percentage points,
#: between a float32 solve and its float64 reference on the seeded
#: bench pairs.  Reduced precision perturbs a nonconvex trajectory, so
#: individual matches can flip; the gate is that ranking quality stays
#: within this band, not that plans agree entrywise.
HIT1_PARITY_POINTS = 3.0


@dataclass(frozen=True)
class SolverPrecision:
    """One named working precision for the solve stage."""

    name: str
    dtype: np.dtype = field(repr=False)
    #: floor applied to ``config.sinkhorn_tol`` (0 disables checks).
    sinkhorn_tol_floor: float

    def effective_sinkhorn_tol(self, configured: float) -> float:
        if configured <= 0.0:
            return configured
        return max(configured, self.sinkhorn_tol_floor)


FLOAT64 = SolverPrecision("float64", np.dtype(np.float64), 0.0)
FLOAT32 = SolverPrecision("float32", np.dtype(np.float32), F32_SINKHORN_TOL)

PRECISIONS: dict[str, SolverPrecision] = {
    FLOAT64.name: FLOAT64,
    FLOAT32.name: FLOAT32,
}

DEFAULT_PRECISION = FLOAT64.name


def ensure_precision(precision: str | SolverPrecision) -> SolverPrecision:
    """Resolve a precision name (or pass through an instance)."""
    if isinstance(precision, SolverPrecision):
        return precision
    resolved = PRECISIONS.get(precision)
    if resolved is None:
        choices = ", ".join(sorted(PRECISIONS))
        raise ConfigError(
            f"unknown solver precision {precision!r}; choose one of: {choices}"
        )
    return resolved


# float32 routing table: requested backend -> (actual backend, extra
# backend options).  float64 never consults this — see
# backend_for_precision.  ``fused-dense`` routes to *batched*-f32: the
# lockstep schedule amortises the numpy call overhead that dominates
# pi_update at bench scale, and it is bitwise-equal to the one-run-at-
# a-time float32 schedule (threaded-restart at width 1) by the
# per-slice GEMM contract.
_F32_ROUTES: dict[str, tuple[str, dict]] = {
    "fused-dense": ("batched-f32", {}),
    "batched-restart": ("batched-f32", {}),
    "batched-f32": ("batched-f32", {}),
    "threaded-restart": ("threaded-restart", {"precision": "float32"}),
}


def backend_for_precision(
    backend: str, precision: str | SolverPrecision
) -> tuple[str, dict]:
    """Map ``(backend, precision)`` to the backend that implements it.

    ``float64`` is the identity: the requested backend is returned
    unchanged with no extra options, so the default precision routes to
    the bitwise-pinned reference paths.  ``float32`` routes through
    :data:`_F32_ROUTES`; backends without a reduced-precision variant
    (sparse, the partial backends) raise :class:`ConfigError`
    naming the ones that have one.
    """
    resolved = ensure_precision(precision)
    if resolved.name == DEFAULT_PRECISION:
        return backend, {}
    route = _F32_ROUTES.get(backend)
    if route is None:
        supported = ", ".join(sorted(set(_F32_ROUTES)))
        raise ConfigError(
            f"backend {backend!r} has no {resolved.name} variant; "
            f"precision-routable backends: {supported}"
        )
    name, options = route
    return name, dict(options)


__all__ = [
    "DEFAULT_PRECISION",
    "F32_SINKHORN_TOL",
    "FLOAT32",
    "FLOAT64",
    "HIT1_PARITY_POINTS",
    "PRECISIONS",
    "SolverPrecision",
    "backend_for_precision",
    "ensure_precision",
]
