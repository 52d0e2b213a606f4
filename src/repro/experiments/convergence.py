"""Convergence experiment (Fig. 3): per-epoch loss and test-AUPRC curves."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.data import load_dataset
from repro.eval.protocol import fit_on_split
from repro.eval.registry import make_detector
from repro.metrics import auprc


@dataclass
class ConvergenceResult:
    """Loss curve of TargAD and test-AUPRC curves of all requested models."""

    dataset: str
    loss_curve: List[float] = field(default_factory=list)
    auprc_curves: Dict[str, List[float]] = field(default_factory=dict)

    def final_auprc(self) -> Dict[str, float]:
        return {name: curve[-1] for name, curve in self.auprc_curves.items()}

    def epochs_to_reach(self, model: str, fraction: float = 0.95) -> int:
        """First epoch at which ``model`` reaches ``fraction`` of its final AUPRC."""
        curve = self.auprc_curves[model]
        target = fraction * curve[-1]
        for epoch, value in enumerate(curve):
            if value >= target:
                return epoch
        return len(curve) - 1


def convergence_curves(
    dataset: str = "unsw_nb15",
    baselines: Sequence[str] = ("DevNet", "DeepSAD", "PReNet"),
    seed: int = 0,
    scale: Optional[float] = None,
    targad_kwargs: Optional[Dict] = None,
) -> ConvergenceResult:
    """Fit TargAD and baselines, recording test AUPRC after every epoch."""
    kwargs = {} if scale is None else {"scale": scale}
    split = load_dataset(dataset, random_state=seed, **kwargs)
    result = ConvergenceResult(dataset=dataset)
    for name in ("TargAD", *baselines):
        curve: List[float] = []
        overrides = (targad_kwargs or {}) if name == "TargAD" else {}
        detector = make_detector(name, random_state=seed, dataset=dataset, **overrides)
        fit_on_split(
            detector, split,
            epoch_callback=lambda e, d: curve.append(
                auprc(split.y_test_binary, d.decision_function(split.X_test))
            ),
        )
        result.auprc_curves[name] = curve
        if name == "TargAD":
            result.loss_curve = list(detector.loss_history)
    return result
