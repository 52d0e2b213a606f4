"""TargAD's composite classifier loss (Eqs. 3, 6, 7, 8).

``L_clf = L_CE + λ1 · L_OE + λ2 · L_RE`` where

- ``L_CE`` (Eq. 3): standard cross-entropy on labeled target anomalies
  (against ``ỹ^t``) and normal candidates (against ``ỹ^n``);
- ``L_OE`` (Eq. 6): weighted cross-entropy of non-target anomaly candidates
  against the modified OE pseudo-label ``ỹ^o``, pulling their prediction
  toward a uniform distribution over the first ``m`` dims;
- ``L_RE`` (Eq. 7): negative entropy of predictions on ``D_L ∪ D_U^N``,
  i.e. an entropy-minimization regularizer that restores confidence eroded
  by the OE term during early epochs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import Tensor
from repro.nn.layers import Module
from repro.nn.losses import negative_entropy, soft_cross_entropy


def cross_entropy_term(
    logits_labeled: Optional[Tensor],
    targets_labeled: Optional[np.ndarray],
    logits_normal: Optional[Tensor],
    targets_normal: Optional[np.ndarray],
) -> Tensor:
    """Eq. (3): ``L_CE`` summed over the two supervised pools.

    Either pool may be absent in a batch; the term then covers the other.
    """
    terms = []
    if logits_labeled is not None and logits_labeled.shape[0] > 0:
        terms.append(soft_cross_entropy(logits_labeled, targets_labeled))
    if logits_normal is not None and logits_normal.shape[0] > 0:
        terms.append(soft_cross_entropy(logits_normal, targets_normal))
    if not terms:
        raise ValueError("L_CE needs at least one non-empty pool")
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def outlier_exposure_term(
    logits_candidates: Tensor,
    ood_targets: np.ndarray,
    weights: np.ndarray,
) -> Tensor:
    """Eq. (6): weighted OE cross-entropy on ``D_U^A``."""
    return soft_cross_entropy(logits_candidates, ood_targets, weights=weights)


def entropy_regularizer_term(
    logits_labeled: Optional[Tensor],
    logits_normal: Optional[Tensor],
) -> Tensor:
    """Eq. (7): mean ``Σ p log p`` over ``D_L ∪ D_U^N``.

    The paper averages over the union; we combine the two per-pool means
    weighted by pool size to get the exact union mean per batch.
    """
    parts = []
    counts = []
    if logits_labeled is not None and logits_labeled.shape[0] > 0:
        parts.append(logits_labeled)
        counts.append(logits_labeled.shape[0])
    if logits_normal is not None and logits_normal.shape[0] > 0:
        parts.append(logits_normal)
        counts.append(logits_normal.shape[0])
    if not parts:
        raise ValueError("L_RE needs at least one non-empty pool")
    total_count = sum(counts)
    total = None
    for logits, count in zip(parts, counts):
        term = negative_entropy(logits) * (count / total_count)
        total = term if total is None else total + term
    return total


def classifier_loss(
    network: Module,
    X_labeled: np.ndarray,
    targets_labeled: np.ndarray,
    X_normal: np.ndarray,
    targets_normal: np.ndarray,
    X_candidates: np.ndarray,
    ood_targets: np.ndarray,
    weights: np.ndarray,
    lambda1: float = 0.1,
    lambda2: float = 1.0,
    use_oe: bool = True,
    use_re: bool = True,
) -> Tensor:
    """Eq. (8): the full ``L_clf`` for one batch.

    All ``X_*`` arguments are batch slices; empty slices are tolerated
    everywhere except for a batch that is empty in *all three* pools.
    The network runs once, over the non-empty pools stacked row-wise
    (candidates only when ``L_OE`` is on), and each term reads its rows
    of the logits.
    """
    with_oe = use_oe and lambda1 > 0 and len(X_candidates) > 0
    pools = [X_labeled, X_normal] + ([X_candidates] if with_oe else [])
    logits = _pool_logits(network, pools)
    logits_labeled, logits_normal = logits[0], logits[1]

    loss = cross_entropy_term(logits_labeled, targets_labeled, logits_normal, targets_normal)
    if with_oe:
        loss = loss + lambda1 * outlier_exposure_term(logits[2], ood_targets, weights)
    if use_re and lambda2 > 0:
        loss = loss + lambda2 * entropy_regularizer_term(logits_labeled, logits_normal)
    return loss


def _pool_logits(network: Module, pools: list) -> list:
    """One forward over the non-empty pools; their logits (``None`` if empty)."""
    sizes = [len(pool) for pool in pools]
    filled = [pool for pool in pools if len(pool)]
    if not filled:
        return [None] * len(pools)
    logits = network(Tensor(np.concatenate(filled)))
    out, start = [], 0
    for size in sizes:
        out.append(logits[start : start + size] if size else None)
        start += size
    return out
