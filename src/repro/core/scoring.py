"""Inference-time scoring rules (Eq. 9 and Section III-C)."""

from __future__ import annotations

import numpy as np

from repro.data.schema import KIND_NONTARGET, KIND_NORMAL, KIND_TARGET


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def target_anomaly_score(probs: np.ndarray, m: int) -> np.ndarray:
    """Eq. (9): ``S^tar(x) = max_{j <= m} p_j(x)``.

    Higher = more likely a target anomaly.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] <= m:
        raise ValueError("probs must be (n, m + k) with k >= 1")
    return probs[:, :m].max(axis=1)


def is_normal_rule(probs: np.ndarray, m: int, k: int) -> np.ndarray:
    """Section III-C normality test: ``Σ_{j>m} p_j > k / (m + k)``.

    Returns a boolean mask; True = classified normal, False = anomalous
    (target or non-target, to be separated by an OOD strategy).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape[1] != m + k:
        raise ValueError(f"probs must have m + k = {m + k} columns")
    normal_mass = probs[:, m:].sum(axis=1)
    return normal_mass > k / (m + k)


def route_from_logits(
    logits: np.ndarray,
    probs: np.ndarray,
    m: int,
    k: int,
    strategy,
) -> np.ndarray:
    """Tri-class routing (Section III-C) from precomputed logits/probs.

    Applies :func:`is_normal_rule`, then splits the anomalous side with
    a *calibrated* :class:`~repro.ood.OODStrategy` (OOD = non-target).
    ``strategy`` may also be a zero-argument callable returning one —
    it is invoked only when anomalous rows exist, which lets
    :class:`TargAD` defer strategy calibration until routing actually
    needs it. Shared by :meth:`TargAD.predict_triclass` and
    ``score_batch`` — one definition, identical routing on both paths.
    Returns the kind codes of :mod:`repro.data.schema` (0/1/2), int64.

    One pass: the normality rule is evaluated once, the codes are built
    with one ``np.where``, and the strategy scores only the anomalous
    rows.
    """
    normal = is_normal_rule(probs, m, k)
    codes = np.where(normal, np.int64(KIND_NORMAL), np.int64(KIND_TARGET))
    anomalous = np.flatnonzero(~normal)
    if anomalous.size:
        strat = strategy() if callable(strategy) else strategy
        codes[anomalous[strat.is_ood(logits[anomalous])]] = KIND_NONTARGET
    return codes
