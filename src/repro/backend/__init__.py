"""Pluggable numeric backend with an explicit dtype policy.

This package is the execution substrate underneath :mod:`repro.autodiff`
(and, by extension, every model in the repository). It separates *what*
array math is performed from *how*:

- :mod:`repro.backend.ops` — the backend-agnostic op surface the
  autodiff engine calls (``from repro.backend import ops as B``);
- :mod:`repro.backend.registry` — named backends, one active at a time
  (:func:`register_backend`, :func:`set_backend`, :func:`use_backend`);
- :mod:`repro.backend.numpy_backend` — the implementation, registered
  as ``"numpy"`` and active by default;
- :mod:`repro.backend.policy` — the dtype policy: training/grad checks
  are pinned to ``float64``, inference may opt into ``float32``
  (:func:`inference_precision`, or the ``dtype=`` argument on the
  compiled-inference entry points in :mod:`repro.nn`).
"""

from repro.backend.numpy_backend import NumpyBackend
from repro.backend.policy import (
    TRAINING_DTYPE,
    inference_dtype,
    inference_precision,
    resolve_dtype,
    set_inference_dtype,
    training_dtype,
)
from repro.backend.registry import (
    active_backend,
    backend_names,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "NumpyBackend",
    "TRAINING_DTYPE",
    "active_backend",
    "backend_names",
    "get_backend",
    "inference_dtype",
    "inference_precision",
    "register_backend",
    "resolve_dtype",
    "set_backend",
    "set_inference_dtype",
    "training_dtype",
    "use_backend",
]
