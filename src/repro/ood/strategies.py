"""OOD scoring strategies used by TargAD's tri-class rule.

TargAD treats non-target anomalies as out-of-distribution: after the
Section III-C normality test routes an instance to the "anomalous" side,
one of these strategies decides whether it is a (in-distribution) target
anomaly or an (out-of-distribution) non-target anomaly.

All strategies expose ``ood_score(logits)`` where **higher = more OOD**,
and a calibration step that picks a threshold separating ID scores (from
labeled target anomalies) from OOD scores (from non-target anomaly
candidates) by maximizing balanced accuracy over candidate cut points.

- **MSP** (Hendrycks & Gimpel 2017): ``1 − max_j softmax(z)_j``. Confident
  predictions are ID.
- **ES** (Liu et al. 2020): the energy ``−logsumexp(z)``. ID instances
  have low energy under an OE-trained model.
- **ED** (He et al. 2022, SAFE-STUDENT): the energy *discrepancy*
  ``logsumexp(z_S) − max_{j∈S} z_j`` computed over a designated logit
  subset ``S`` (TargAD passes the first ``m`` target dims) — how much
  energy mass lies beyond the subset's dominant logit. A peaked target
  block gives ≈ 0 (an in-distribution target anomaly); a uniform one gives
  ``log |S|`` (the OE-calibrated signature of a non-target anomaly). Note
  that over *all* dims this statistic is a strictly monotone function of
  MSP (``MSP = 1 − exp(−ED)``) and adds nothing; the subset restriction is
  what lets ED ignore the normal-cluster logits and judge the part of the
  distribution that matters, which is the property the paper credits for
  its Table IV win.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np


def _logsumexp_rows(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise ``log(sum(exp(a)))`` of a 2-D float64 array, and the row max.

    Replays ``scipy.special.logsumexp(a, axis=1)``'s real-input algorithm
    one operation at a time, so the result is bitwise scipy's (ties, ±inf
    and NaN included) without its array-API dispatch, which costs more
    than the classifier forward on a serving batch. The maxima are split
    out of the sum and counted (``m``), the rest is shifted by the row
    max ``M``, and a row whose stable form is not finite falls back to
    the direct formula. Raises no floating-point warnings.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        M = a.max(axis=1)
        col = M[:, None]
        top = a == col
        m = top.sum(axis=1, dtype=np.float64)
        s = np.exp(np.where(top, -np.inf, a) - col).sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + M
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out, M


class OODStrategy:
    """Base class: score + threshold calibration."""

    name = "base"

    def __init__(self):
        self.threshold_: Optional[float] = None

    def ood_score(self, logits: np.ndarray) -> np.ndarray:
        """Per-row OOD-ness; higher = more out-of-distribution."""
        raise NotImplementedError

    def fit_threshold(self, id_logits: np.ndarray, ood_logits: np.ndarray) -> float:
        """Calibrate the ID/OOD cut from labeled examples of both sides.

        Maximizes balanced accuracy over midpoints of adjacent distinct
        scores and keeps the first maximum. One sorted pass: at every cut,
        ``searchsorted`` counts the ID scores passed (``<= cut``) and the
        OOD scores flagged (``> cut``). A NaN score is neither; a NaN cut
        passes and flags nothing.
        """
        id_scores = self.ood_score(np.asarray(id_logits, dtype=np.float64))
        ood_scores = self.ood_score(np.asarray(ood_logits, dtype=np.float64))
        if len(id_scores) == 0 or len(ood_scores) == 0:
            raise ValueError("both ID and OOD calibration sets must be non-empty")
        all_scores = np.unique(np.concatenate([id_scores, ood_scores]))
        if len(all_scores) == 1:
            self.threshold_ = float(all_scores[0])
            return self.threshold_
        cuts = (all_scores[:-1] + all_scores[1:]) / 2.0
        # NaN sorts last, so a search counts only the non-NaN scores <= cut.
        ood_valid = len(ood_scores) - np.isnan(ood_scores).sum()
        id_passed = np.searchsorted(np.sort(id_scores), cuts, side="right")
        ood_flagged = ood_valid - np.searchsorted(np.sort(ood_scores), cuts, side="right")
        nan_cut = np.isnan(cuts)
        id_passed[nan_cut] = 0
        ood_flagged[nan_cut] = 0
        tpr = ood_flagged / len(ood_scores)   # OOD correctly flagged
        tnr = id_passed / len(id_scores)      # ID correctly passed
        balanced = 0.5 * (tpr + tnr)
        self.threshold_ = float(cuts[np.argmax(balanced)])
        return self.threshold_

    def is_ood(self, logits: np.ndarray) -> np.ndarray:
        """Boolean OOD mask using the calibrated threshold."""
        if self.threshold_ is None:
            raise RuntimeError("strategy is not calibrated; call fit_threshold() first")
        return self.ood_score(np.asarray(logits, dtype=np.float64)) > self.threshold_


class MaxSoftmaxProbability(OODStrategy):
    """MSP baseline: OOD score = 1 − max softmax probability."""

    name = "msp"

    def ood_score(self, logits: np.ndarray) -> np.ndarray:
        logits = np.asarray(logits, dtype=np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        return 1.0 - probs.max(axis=1)


class EnergyScore(OODStrategy):
    """Energy score: OOD score = −logsumexp(logits) (high energy = OOD)."""

    name = "es"

    def __init__(self, temperature: float = 1.0):
        super().__init__()
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = temperature

    def ood_score(self, logits: np.ndarray) -> np.ndarray:
        logits = np.asarray(logits, dtype=np.float64)
        return -self.temperature * _logsumexp_rows(logits / self.temperature)[0]


class EnergyDiscrepancy(OODStrategy):
    """Energy discrepancy over a logit subset.

    ``OOD score = logsumexp(z_S) − max_{j∈S} z_j`` where ``S`` is the first
    ``n_dims`` logits (all logits when ``n_dims`` is None). TargAD passes
    ``n_dims = m`` so the statistic measures the peakedness of the target
    block only.
    """

    name = "ed"

    def __init__(self, temperature: float = 1.0, n_dims: Optional[int] = None):
        super().__init__()
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if n_dims is not None and n_dims < 1:
            raise ValueError("n_dims must be >= 1")
        self.temperature = temperature
        self.n_dims = n_dims

    def ood_score(self, logits: np.ndarray) -> np.ndarray:
        logits = np.asarray(logits, dtype=np.float64)
        if self.n_dims is not None:
            if logits.shape[1] < self.n_dims:
                raise ValueError(f"logits have {logits.shape[1]} dims, need >= {self.n_dims}")
            logits = logits[:, : self.n_dims]
        lse, row_max = _logsumexp_rows(logits / self.temperature)
        return self.temperature * (lse - row_max)


STRATEGIES: Dict[str, Type[OODStrategy]] = {
    "msp": MaxSoftmaxProbability,
    "es": EnergyScore,
    "ed": EnergyDiscrepancy,
}


def get_strategy(name: str, **kwargs) -> OODStrategy:
    """Instantiate an OOD strategy by name ("msp", "es", "ed")."""
    key = name.lower()
    if key not in STRATEGIES:
        raise KeyError(f"unknown OOD strategy {name!r}; choices: {sorted(STRATEGIES)}")
    return STRATEGIES[key](**kwargs)
