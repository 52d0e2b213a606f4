"""Design-choice ablations beyond the paper's tables (DESIGN.md §inventory).

Probes three implementation decisions on UNSW-NB15:

1. **Per-cluster error standardization** in candidate selection (our
   refinement over the paper's raw global sort — see
   ``CandidateSelector.normalize_errors``): measures candidate precision
   and downstream AUPRC with and without it.
2. **k sensitivity**: elbow-selected k vs fixed k ∈ {2, 4, 6} — the paper
   selects k by the elbow method; this quantifies how much the choice
   matters on this data.
3. **SAD autoencoder vs plain autoencoder** in candidate selection
   (η = 1 vs η = 0 wired through the full model), isolating the Eq. 1
   labeled-anomaly term.
"""

import numpy as np

from _common import BENCH_SCALE, BENCH_SEEDS
from repro.core.candidate_selection import CandidateSelector
from repro.data import load_dataset
from repro.eval import ResultTable
from repro.experiments import ablation


def mean_auprc(variants):
    """Mean test AUPRC per TargAD variant over the bench seeds."""
    rows = ablation("unsw_nb15", variants=variants, seeds=BENCH_SEEDS, scale=BENCH_SCALE)
    return {label: row["auprc"] for label, row in rows.items()}


def test_candidate_normalization(benchmark):
    def run():
        rows = {}
        for label, normalize in (("standardized", True), ("raw global sort", False)):
            precisions = []
            for seed in BENCH_SEEDS:
                split = load_dataset("unsw_nb15", random_state=seed, scale=BENCH_SCALE)
                selector = CandidateSelector(k=4, normalize_errors=normalize,
                                             random_state=seed)
                selection = selector.fit(split.X_unlabeled, split.X_labeled)
                kinds = split.unlabeled_kind[selection.candidate_indices]
                precisions.append(float((kinds > 0).mean()))
            rows[label] = float(np.mean(precisions))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = ResultTable(
        f"Design ablation — candidate precision (anomaly fraction of D_U^A), "
        f"scale={BENCH_SCALE}",
        columns=["candidate precision"],
        row_header="Error ranking",
    )
    for label, value in rows.items():
        table.add_row(label, {"candidate precision": f"{value:.3f}"})
    table.print()
    assert rows["standardized"] >= rows["raw global sort"] - 0.02


def test_k_sensitivity(benchmark):
    variants = {"elbow": {"k": None}, "k=2": {"k": 2}, "k=4 (true)": {"k": 4}, "k=6": {"k": 6}}
    rows = benchmark.pedantic(mean_auprc, args=(variants,), rounds=1, iterations=1)
    table = ResultTable(
        f"Design ablation — AUPRC vs clustering k (scale={BENCH_SCALE})",
        columns=["AUPRC"], row_header="k",
    )
    for label, value in rows.items():
        table.add_row(label, {"AUPRC": f"{value:.3f}"})
    table.print()
    # The method should not collapse for any reasonable k.
    assert min(rows.values()) > 0.3


def test_sad_term_in_selection(benchmark):
    variants = {"SAD (eta=1)": {"eta": 1.0}, "plain AE (eta=0)": {"eta": 0.0}}
    rows = benchmark.pedantic(mean_auprc, args=(variants,), rounds=1, iterations=1)
    table = ResultTable(
        f"Design ablation — Eq. 1 SAD term in candidate selection "
        f"(scale={BENCH_SCALE})",
        columns=["AUPRC"], row_header="Autoencoder loss",
    )
    for label, value in rows.items():
        table.add_row(label, {"AUPRC": f"{value:.3f}"})
    table.print()
    assert all(np.isfinite(list(rows.values())))
