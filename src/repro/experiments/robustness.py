"""Robustness sweeps (the Fig. 4 experiment family).

A *sweep* evaluates a set of detectors across a list of split
configurations, averaging AUPRC over seeds. The four paper panels are
expressible as sweeps:

>>> sweep("unsw_nb15", ["TargAD", "DevNet"],
...       {"3 new": {"train_nontarget_families": ["Reconnaissance"]}},
...       seeds=(0, 1), scale=0.03)            # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.eval.protocol import evaluate_detector


@dataclass
class SweepResult:
    """AUPRC/AUROC per (setting, detector), averaged over seeds."""

    dataset: str
    settings: List[str]
    detectors: List[str]
    auprc: Dict[str, Dict[str, float]] = field(default_factory=dict)
    auroc: Dict[str, Dict[str, float]] = field(default_factory=dict)
    auprc_runs: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def series(self, detector: str) -> List[float]:
        """AUPRC of one detector across the settings, in order."""
        return [self.auprc[setting][detector] for setting in self.settings]

    def winner(self, setting: str) -> str:
        """Detector with the best mean AUPRC in a setting."""
        row = self.auprc[setting]
        return max(row, key=row.get)


def sweep(
    dataset: str,
    detectors: Sequence[str],
    settings: Dict[str, Dict],
    seeds: Sequence[int] = (0, 1, 2),
    scale: Optional[float] = None,
    detector_kwargs: Optional[Dict] = None,
) -> SweepResult:
    """Run every detector on every split configuration.

    Parameters
    ----------
    dataset:
        Dataset registry name.
    detectors:
        Detector registry names.
    settings:
        Mapping of setting label -> ``load_dataset`` keyword overrides
        (e.g. ``{"7%": {"contamination": 0.07}}``).
    seeds:
        Independent runs per (setting, detector).
    scale:
        Split size multiplier.
    detector_kwargs:
        Extra constructor arguments for every detector.
    """
    result = SweepResult(dataset=dataset, settings=list(settings), detectors=list(detectors))
    for label, overrides in settings.items():
        result.auprc[label] = {}
        result.auroc[label] = {}
        result.auprc_runs[label] = {}
        for name in detectors:
            run = evaluate_detector(name, dataset, seeds=seeds, scale=scale,
                                    split_kwargs=overrides, detector_kwargs=detector_kwargs)
            result.auprc[label][name] = run.auprc_mean
            result.auroc[label][name] = run.auroc_mean
            result.auprc_runs[label][name] = run.auprc_values
    return result
