"""Hyperparameter-sensitivity experiments (Figs. 6 and 7)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.eval.protocol import evaluate_detector


def _targad_run(dataset: str, seed: int, scale: Optional[float],
                split_kwargs: Optional[Dict] = None, **config) -> Tuple[float, float]:
    """(AUPRC, AUROC) of one TargAD run with ``config`` overrides."""
    run = evaluate_detector("TargAD", dataset, seeds=(seed,), scale=scale,
                            split_kwargs=split_kwargs, detector_kwargs=config)
    return run.auprc_values[0], run.auroc_values[0]


def eta_sweep(
    dataset: str = "unsw_nb15",
    etas: Sequence[float] = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0),
    seed: int = 0,
    scale: Optional[float] = None,
) -> Dict[float, Tuple[float, float]]:
    """Fig. 7(a): TargAD (AUPRC, AUROC) per η in the autoencoder loss."""
    return {eta: _targad_run(dataset, seed, scale, eta=eta) for eta in etas}


def lambda_grid(
    dataset: str = "unsw_nb15",
    lambdas: Sequence[float] = (0.01, 0.1, 1.0, 2.0, 5.0, 10.0),
    seed: int = 0,
    scale: Optional[float] = None,
) -> Dict[Tuple[float, float], Tuple[float, float]]:
    """Fig. 7(b, c): (AUPRC, AUROC) for each (λ1, λ2) pair."""
    return {
        (lam1, lam2): _targad_run(dataset, seed, scale, lambda1=lam1, lambda2=lam2)
        for lam1 in lambdas
        for lam2 in lambdas
    }


def alpha_contamination_matrix(
    dataset: str = "unsw_nb15",
    alphas: Sequence[float] = (0.01, 0.05, 0.10, 0.15, 0.20),
    contaminations: Sequence[float] = (0.01, 0.05, 0.10, 0.15),
    seed: int = 0,
    scale: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 6: TargAD (AUPRC, AUROC) matrices over α (rows) × contamination."""
    auprc_matrix = np.zeros((len(alphas), len(contaminations)))
    auroc_matrix = np.zeros_like(auprc_matrix)
    for j, contamination in enumerate(contaminations):
        for i, alpha in enumerate(alphas):
            auprc_matrix[i, j], auroc_matrix[i, j] = _targad_run(
                dataset, seed, scale, split_kwargs={"contamination": contamination},
                alpha=alpha,
            )
    return auprc_matrix, auroc_matrix
