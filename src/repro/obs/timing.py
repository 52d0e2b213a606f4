"""Timing helpers: context manager and method decorator.

Two entry points, both recording into a :class:`TelemetryRegistry`:

- ``record_timing(telemetry, "name")`` — explicit context manager;
- ``@timed("name")`` — decorator for methods of objects that carry a
  ``telemetry`` attribute (TargAD, ScoringPipeline, CandidateSelector).
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.obs.registry import NULL_TELEMETRY, ensure_telemetry


def record_timing(telemetry, name: str):
    """``with record_timing(reg, "select.total"): ...``; ``None`` is a no-op."""
    return ensure_telemetry(telemetry).timer(name)


def timed(name: str, attr: str = "telemetry") -> Callable:
    """Decorate a method so each call records one timer sample.

    The bound instance's ``attr`` attribute (default ``telemetry``) supplies
    the registry; a missing attribute or ``None`` falls back to the shared
    null telemetry, keeping undecorated construction paths working.
    """

    def decorator(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(self, *args: Any, **kwargs: Any):
            telemetry = getattr(self, attr, None) or NULL_TELEMETRY
            with telemetry.timer(name):
                return func(self, *args, **kwargs)

        return wrapper

    return decorator
