"""Loss functions shared across models.

All losses take and return :class:`~repro.autodiff.Tensor` objects so they
can appear anywhere in a differentiable computation.

The three losses on the training hot path (:func:`reconstruction_errors`,
:func:`soft_cross_entropy`, :func:`negative_entropy`) are single graph
nodes. Each forward runs the op sequence the composed form would, and
each backward replays the composed form's rules in graph order, so values
and gradients are bitwise those of the chain of ``Tensor`` ops they
replace (on C-ordered inputs, which is what every caller passes).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.tensor import log_softmax_arrays
from repro.backend import ops as B

_EPS = 1e-12


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    diff = pred - target
    return (diff * diff).mean()


def reconstruction_errors(pred: Tensor, target: Tensor) -> Tensor:
    """Per-row squared L2 reconstruction error ``||x - x̂||²`` (Eq. 2).

    One node for ``((pred - target) ** 2).sum(axis=1)``.
    """
    diff = pred.data - target.data
    return Tensor._make(
        (diff * diff).sum(axis=1),
        (pred, target),
        _reconstruction_errors_backward,
        (pred, target, diff),
    )


def _reconstruction_errors_backward(grad, pred, target, diff):
    # The composed rules: the row sum broadcasts g, ``d * d`` accumulates
    # g·d once per operand, and the difference passes the sum on.
    half = B.expand_dims(grad, axis=1) * diff
    full = half + half
    if pred.requires_grad:
        pred._accumulate(full, owned=True)
    if target.requires_grad:
        target._accumulate(-full, owned=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy with integer class labels (mean over the batch)."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = logits.log_softmax(axis=1)
    n = logits.shape[0]
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def soft_cross_entropy(
    logits: Tensor,
    soft_targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy against soft (probability-vector) targets.

    Computes ``mean_i w_i * sum_j -t_ij log p_ij`` — the form used by the
    paper's Eq. (3) (one-hot targets) and Eq. (6) (uniform-over-target-dims
    pseudo-labels with per-instance weights).
    """
    soft_targets = np.asarray(soft_targets, dtype=np.float64)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    log_probs, softmax = log_softmax_arrays(logits.data, 1)
    per_instance = -(log_probs * soft_targets).sum(axis=1)
    if weights is not None:
        per_instance = per_instance * weights
    return Tensor._make(
        per_instance.mean(),
        (logits,),
        _soft_cross_entropy_backward,
        (logits, soft_targets, weights, softmax, per_instance.shape),
    )


def _soft_cross_entropy_backward(grad, logits, soft_targets, weights, softmax, shape):
    if not logits.requires_grad:
        return
    # Mean, weights, negation, then the row sum and the target product.
    g = B.broadcast_to(grad, shape) / shape[0]
    if weights is not None:
        g = g * weights
    g = B.expand_dims(-g, axis=1) * soft_targets
    logits._accumulate(g - softmax * g.sum(axis=1, keepdims=True), owned=True)


def negative_entropy(logits: Tensor) -> Tensor:
    """Mean of ``sum_j p_j log p_j`` over the batch (Eq. 7 regularizer).

    Minimizing this quantity *sharpens* predictions (entropy minimization),
    which is exactly what the paper's ``L_RE`` does for labeled anomalies and
    normal candidates.
    """
    log_probs, probs = log_softmax_arrays(logits.data, 1)
    return Tensor._make(
        (probs * log_probs).sum(axis=1).mean(),
        (logits,),
        _negative_entropy_backward,
        (logits, log_probs, probs),
    )


def _negative_entropy_backward(grad, logits, log_probs, probs):
    if not logits.requires_grad:
        return
    # Mean and row sum broadcast g; the product p·log p sends g·p to
    # log p directly and (g·log p)·p through p = exp(log p).
    g = B.expand_dims(B.broadcast_to(grad, probs.shape[:1]) / probs.shape[0], axis=1)
    g = g * probs + g * log_probs * probs
    logits._accumulate(g - probs * g.sum(axis=1, keepdims=True), owned=True)


def binary_cross_entropy(pred_probs: Tensor, targets: np.ndarray) -> Tensor:
    """BCE for probabilities already in (0, 1) (used by GAN-style baselines)."""
    targets = np.asarray(targets, dtype=np.float64)
    clipped = pred_probs.clip(_EPS, 1.0 - _EPS)
    t = Tensor(targets)
    losses = -(t * clipped.log() + (1.0 - t) * (1.0 - clipped).log())
    return losses.mean()


def deviation_loss(scores: Tensor, labels: np.ndarray, margin: float = 5.0, n_ref: int = 5000,
                   rng: Optional[np.random.Generator] = None) -> Tensor:
    """DevNet's deviation loss (Pang et al. 2019).

    Scores of normal (label 0) instances are pushed toward the mean of a
    standard-normal reference sample; scores of anomalies (label 1) are
    pushed at least ``margin`` reference standard deviations above it.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    reference = rng.standard_normal(n_ref)
    mu, sigma = float(reference.mean()), float(reference.std())
    deviation = (scores - mu) / (sigma + _EPS)
    labels = np.asarray(labels, dtype=np.float64)
    lab = Tensor(labels)
    inlier_term = (1.0 - lab) * deviation.abs()
    outlier_term = lab * (Tensor(np.full(labels.shape, margin)) - deviation).relu()
    return (inlier_term + outlier_term).mean()
