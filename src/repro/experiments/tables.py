"""Programmatic Table III / Table IV protocols."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.data import load_dataset
from repro.eval.protocol import evaluate_detector, fit_on_split
from repro.eval.registry import make_detector
from repro.metrics import classification_report

ABLATION_VARIANTS: Dict[str, Dict] = {
    "TargAD": dict(use_oe_loss=True, use_re_loss=True),
    "TargAD_-O": dict(use_oe_loss=False, use_re_loss=True),
    "TargAD_-R": dict(use_oe_loss=True, use_re_loss=False),
    "TargAD_-O-R": dict(use_oe_loss=False, use_re_loss=False),
}


def ablation(
    dataset: str = "unsw_nb15",
    variants: Optional[Dict[str, Dict]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    scale: Optional[float] = None,
) -> Dict[str, Dict[str, float]]:
    """Table III protocol: AUPRC/AUROC per TargAD variant.

    Each variant maps to ``TargADConfig`` overrides; a ``k`` among them
    replaces the dataset's default. Returns
    ``{variant: {"auprc": mean, "auprc_std": std, "auroc": ...}}``.
    """
    variants = variants if variants is not None else ABLATION_VARIANTS
    out = {}
    for name, overrides in variants.items():
        run = evaluate_detector("TargAD", dataset, seeds=seeds, scale=scale,
                                detector_kwargs=overrides)
        out[name] = {
            "auprc": run.auprc_mean,
            "auprc_std": run.auprc_std,
            "auroc": run.auroc_mean,
            "auroc_std": run.auroc_std,
        }
    return out


def triclass_report(
    dataset: str = "unsw_nb15",
    strategies: Sequence[str] = ("msp", "es", "ed"),
    seed: int = 0,
    scale: Optional[float] = None,
) -> Dict[str, Dict]:
    """Table IV protocol: per-strategy tri-class classification report."""
    kwargs = {} if scale is None else {"scale": scale}
    split = load_dataset(dataset, random_state=seed, **kwargs)
    model = make_detector("TargAD", random_state=seed, dataset=dataset)
    fit_on_split(model, split)
    return {
        strategy: classification_report(
            split.test_kind, model.predict_triclass(split.X_test, strategy=strategy),
            labels=[0, 1, 2],
        )
        for strategy in strategies
    }
