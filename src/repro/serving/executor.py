"""The execution seam behind :class:`~repro.serving.pipeline.ScoringPipeline`.

The pipeline scores every batch in-process: one compiled classifier
forward pass, the Eq. 9 score and the tri-class routing of §III-C, all
inside ``TargAD.score_batch``. This module keeps the call site that
scoring passes through:

- :class:`InlineExecutor` — scores sanitized rows with the model it is
  handed;
- :class:`FallbackChain` — holds the pipeline's one executor and is the
  single entry point ``process`` calls per scored batch.

Neither holds a reference to the pipeline or to a model: the pipeline
passes its current model into :meth:`FallbackChain.score`, so a hot swap
is visible on the next batch and a retired pipeline or model is freed by
reference counting alone. Anything the executor raises is a model fault;
the pipeline's circuit breaker and degraded fallback handle it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["FallbackChain", "InlineExecutor"]


class InlineExecutor:
    """Single-process scoring on the model passed in."""

    #: Telemetry tag naming this execution path.
    name = "inline"

    def __init__(self, strategy: str):
        self.strategy = strategy

    def score(self, model, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # score_batch runs the classifier once on the compiled
        # graph-free path and yields scores + routing together —
        # no Tensor objects are constructed at serve time.
        return model.score_batch(X, strategy=self.strategy)


class FallbackChain:
    """The pipeline's executors, iterable; scoring goes through :meth:`score`.

    Holds exactly one :class:`InlineExecutor`.
    """

    def __init__(self, strategy: str):
        self.executors = [InlineExecutor(strategy)]

    def __iter__(self):
        return iter(self.executors)

    def score(self, model, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score sanitized rows with ``model``; model faults propagate raw."""
        return self.executors[0].score(model, X)
