"""Deployment utilities: scoring pipelines, drift monitoring, alert routing.

The paper's motivating systems run continuously (payment platforms, SOC
pipelines). This package wraps a fitted TargAD for that setting:

- :class:`~repro.serving.pipeline.ScoringPipeline` — batch scoring with
  thresholds calibrated on a validation split and tri-class routing;
- :class:`~repro.serving.drift.DriftMonitor` — per-feature ECDF distance
  between live batches and the training reference, flagging covariate
  drift that would silently invalidate the detector;
- :class:`~repro.serving.pipeline.AlertBatch` — the structured result a
  downstream queue consumes.

The pipeline is hardened through :mod:`repro.resilience`: incoming rows
are sanitized (bad rows quarantined, marked :data:`ROUTE_QUARANTINED` in
the routing), and the primary scorer is guarded by a circuit breaker
with a reconstruction-error fallback for degraded operation.

Scoring runs in-process: each batch takes one compiled classifier
forward pass through ``TargAD.score_batch``, called via the
:class:`~repro.serving.executor.FallbackChain` seam
(:mod:`repro.serving.executor`). Models are replaced with
:meth:`~repro.serving.pipeline.ScoringPipeline.swap_model`, which stages
a new generation off the hot path and flips it in under the swap lock.
"""

from repro.serving.drift import DriftMonitor, DriftReport
from repro.serving.executor import FallbackChain, InlineExecutor
from repro.serving.pipeline import ROUTE_QUARANTINED, AlertBatch, ScoringPipeline

__all__ = [
    "AlertBatch",
    "DriftMonitor",
    "DriftReport",
    "FallbackChain",
    "InlineExecutor",
    "ROUTE_QUARANTINED",
    "ScoringPipeline",
]
