"""Observability: telemetry registry, timing helpers, dashboard, export.

The training (``TargAD.fit``), candidate-selection, and serving
(``ScoringPipeline``) layers all accept a ``telemetry=`` argument; pass a
:class:`TelemetryRegistry` to collect timings, counters, gauges, and
structured events, or leave it ``None`` for a zero-overhead no-op.

Quick start::

    from repro.obs import TelemetryRegistry, render_dashboard

    telemetry = TelemetryRegistry()
    model = TargAD(TargADConfig(k=3, random_state=0), telemetry=telemetry)
    model.fit(X_unlabeled, X_labeled, y_labeled)
    pipe = ScoringPipeline(model, telemetry=telemetry).calibrate(X_val, y_val)
    pipe.process(X_live)
    print(render_dashboard(telemetry))
"""

from repro.obs.dashboard import render_dashboard, render_summary
from repro.obs.events import Event, EventLog
from repro.obs.export import dump_json, snapshot_to_dict
from repro.obs.registry import (
    NULL_TELEMETRY,
    NullTelemetry,
    TelemetryRegistry,
    ensure_telemetry,
)
from repro.obs.stats import TimerStats
from repro.obs.timing import record_timing, timed

__all__ = [
    "Event",
    "EventLog",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TelemetryRegistry",
    "TimerStats",
    "dump_json",
    "ensure_telemetry",
    "record_timing",
    "render_dashboard",
    "render_summary",
    "snapshot_to_dict",
    "timed",
]
