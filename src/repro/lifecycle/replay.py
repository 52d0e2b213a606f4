"""Drift-scenario replay harness for the lifecycle loop.

Drives a :class:`~repro.lifecycle.manager.LifecycleManager` through a
two-phase traffic replay — warm batches drawn from the training regime,
then batches from a shifted regime — and records the numbers the drift
story is judged on:

- **batches to detection** — drifted batches served before the debounce
  policy confirmed the event;
- **detection→swap latency** — wall-clock seconds from confirmation to
  the hot-swap completing (from the swap event's details);
- **accuracy recovery curve** — AUPRC of the *live* model on a held-out
  evaluation slice from the shifted regime, measured after every batch,
  so the refit's recovery (and the pre-swap degradation) is visible;
- **the counterfactual** — the same slice scored at the end by the model
  that served before the first batch, so recovery is judged against
  what the deployment would score had it never swapped.

Used by ``repro lifecycle`` (CLI) and ``examples/lifecycle_demo.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.lifecycle.manager import LifecycleManager
from repro.metrics.ranking import auprc

__all__ = ["DriftReplayResult", "drift_replay", "make_split_oracle", "shift_regime"]

#: AUPRC the swapped-in model must gain over the stale one, on the same
#: shifted eval slice, for the replay to count as recovered. A refit that
#: changes nothing gains 0 and fails.
RECOVERY_MARGIN = 0.01


def shift_regime(X: np.ndarray, shift: float, fraction: float = 0.5,
                 seed: int = 0) -> np.ndarray:
    """Covariate-shift a pool: add ``shift`` to a seeded feature subset.

    Shifting only a fraction of the features keeps the regime change
    detectable per-feature (large KS on the shifted columns) while
    leaving the rest of the geometry intact — closer to a real drift
    than translating every axis.
    """
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n_shift = max(int(round(X.shape[1] * fraction)), 1)
    cols = rng.choice(X.shape[1], size=n_shift, replace=False)
    out = X.copy()
    out[:, cols] += shift
    return out


def make_split_oracle(X_rows: np.ndarray, labels: np.ndarray) -> Callable:
    """Oracle answering from ground truth, keyed by exact row bytes.

    ``labels`` follows the :data:`repro.core.active.Oracle` contract
    (0 = not a target anomaly, 1..m = target class). Rows the oracle has
    never seen answer 0 — a conservative default matching a human
    analyst who cannot confirm what they cannot identify.
    """
    table = {
        np.asarray(row, dtype=np.float64).tobytes(): int(label)
        for row, label in zip(X_rows, labels)
    }

    def oracle(rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return np.array([table.get(row.tobytes(), 0) for row in rows],
                        dtype=np.int64)

    return oracle


@dataclass
class DriftReplayResult:
    """Per-batch trace plus the headline drift-recovery numbers."""

    batches: List[dict] = field(default_factory=list)
    batches_to_detection: Optional[int] = None
    detection_to_swap_seconds: Optional[float] = None
    auprc_before_drift: float = 0.0
    auprc_at_detection: float = 0.0
    auprc_final: float = 0.0
    auprc_stale_final: float = 0.0
    swaps: int = 0
    rollbacks: int = 0

    @property
    def auprc_curve(self) -> List[float]:
        return [b["auprc"] for b in self.batches]

    @property
    def recovered(self) -> bool:
        """A swap landed and the live model beats the stale one by the margin.

        ``auprc_stale_final`` is the model that served before the first
        batch, scored on the same shifted eval slice as ``auprc_final``:
        the accuracy the deployment would be stuck at without a refit.
        Recovery needs the live model to win by at least
        :data:`RECOVERY_MARGIN` AUPRC.
        """
        return self.swaps > 0 and (
            self.auprc_final - self.auprc_stale_final >= RECOVERY_MARGIN
        )

    def to_dict(self) -> dict:
        return {
            "batches_to_detection": self.batches_to_detection,
            "detection_to_swap_seconds": self.detection_to_swap_seconds,
            "auprc_before_drift": round(self.auprc_before_drift, 4),
            "auprc_at_detection": round(self.auprc_at_detection, 4),
            "auprc_final": round(self.auprc_final, 4),
            "auprc_stale_final": round(self.auprc_stale_final, 4),
            "recovered": self.recovered,
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "n_batches": len(self.batches),
            "auprc_curve": [round(v, 4) for v in self.auprc_curve],
        }


def drift_replay(
    manager: LifecycleManager,
    X_warm: np.ndarray,
    X_drift: np.ndarray,
    X_eval: np.ndarray,
    y_eval: np.ndarray,
    batch_rows: int = 64,
    progress: Optional[Callable[[str], None]] = None,
) -> DriftReplayResult:
    """Replay warm then drifted traffic; trace detection and recovery.

    ``X_eval``/``y_eval`` are a held-out slice *from the shifted regime*
    — the AUPRC curve on it shows the degradation the drift causes and
    the recovery the swap buys. The manager's own validation slice
    (used for the swap gate) must be disjoint from this one.

    Each per-batch record says whether the batch got a drift report
    (``checked``); a batch that only joined the drift monitor's window
    records ``max_ks`` as ``None`` and ``drifted`` as ``False``.
    """
    say = progress if progress is not None else (lambda msg: None)
    result = DriftReplayResult()
    y_eval = np.asarray(y_eval, dtype=np.int64).ravel()
    stale_model = manager.pipeline.model

    def serve(X_batch: np.ndarray, phase: str):
        """Serve one batch; return the model that scored it.

        A batch that confirms drift can run an inline cycle that swaps
        the model before ``process`` returns, so the model that served
        is read before the call.
        """
        served_model = manager.pipeline.model
        gen_before = manager.pipeline.generation
        batch = manager.process(X_batch)
        manager.wait()  # join a background refit before reading the model
        gen = manager.pipeline.generation
        live_auprc = float(auprc(
            y_eval, manager.pipeline.model.decision_function(X_eval)
        ))
        checked = batch.drift is not None
        result.batches.append({
            "phase": phase,
            "checked": checked,
            "drifted": bool(checked and batch.drift.drifted),
            "max_ks": float(batch.drift.max_statistic) if checked else None,
            "generation": int(gen),
            "auprc": live_auprc,
        })
        if gen != gen_before:
            say(f"  hot-swap: generation {gen_before} -> {gen} "
                f"(live AUPRC {live_auprc:.3f})")
        return served_model

    n_batches = 0
    for start in range(0, len(X_warm), batch_rows):
        serve(X_warm[start:start + batch_rows], "warm")
        n_batches += 1
    result.auprc_before_drift = (
        result.batches[-1]["auprc"] if result.batches else 0.0
    )
    say(f"served {n_batches} warm batch(es); "
        f"live AUPRC on shifted eval slice: {result.auprc_before_drift:.3f}")

    drift_batches = 0
    for start in range(0, len(X_drift), batch_rows):
        served_model = serve(X_drift[start:start + batch_rows], "drift")
        drift_batches += 1
        if result.batches_to_detection is None:
            confirmed = [e for e in manager.history
                         if e.kind == "drift_confirmed"]
            if confirmed:
                result.batches_to_detection = drift_batches
                result.auprc_at_detection = float(auprc(
                    y_eval, served_model.decision_function(X_eval)
                ))
                say(f"drift confirmed after {drift_batches} drifted batch(es)")

    swap_events = [e for e in manager.history if e.kind == "swap"]
    result.swaps = len(swap_events)
    result.rollbacks = sum(1 for e in manager.history if e.kind == "rollback")
    if swap_events:
        result.detection_to_swap_seconds = swap_events[0].details.get(
            "detection_to_swap_seconds"
        )
    result.auprc_final = result.batches[-1]["auprc"] if result.batches else 0.0
    result.auprc_stale_final = float(auprc(y_eval, stale_model.decision_function(X_eval)))
    return result
