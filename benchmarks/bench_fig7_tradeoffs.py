"""Fig. 7 — trade-off parameter sensitivity on UNSW-NB15.

(a) η ∈ {0, 0.01, 0.1, 1, 10, 100} in the autoencoder loss (Eq. 1).
    Expected shape (paper): η = 0 (no semi-supervision in candidate
    selection) collapses performance; any η > 0 is robust.
(b, c) λ1, λ2 ∈ {0.01, 0.1, 1, 2, 5, 10} in the classifier loss (Eq. 8).
    Expected shape (paper): small values work; performance declines once
    λ1 or λ2 exceed 1 (OE over-focus / confidence over-penalty).
"""

import numpy as np

from _common import BENCH_SCALE
from repro.eval import ResultTable
from repro.experiments import eta_sweep, lambda_grid

ETAS = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
LAMBDAS = [0.01, 0.1, 1.0, 2.0, 5.0, 10.0]
SEED = 0


def test_fig7a_eta(benchmark):
    from repro.viz import bar_chart

    results = benchmark.pedantic(
        eta_sweep, args=("unsw_nb15",),
        kwargs=dict(etas=ETAS, seed=SEED, scale=BENCH_SCALE), rounds=1, iterations=1,
    )
    print("\n" + bar_chart(
        [str(eta) for eta in results],
        [p for p, _ in results.values()],
        title="Fig. 7(a) — AUPRC vs η",
    ))
    table = ResultTable(
        f"Fig. 7(a) — TargAD vs η in L_AE (scale={BENCH_SCALE})",
        columns=["AUPRC", "AUROC"],
        row_header="eta",
    )
    for eta, (p, r) in results.items():
        table.add_row(str(eta), {"AUPRC": f"{p:.3f}", "AUROC": f"{r:.3f}"})
    table.print()
    print("Paper shape: η=0 deteriorates; robust for η > 0.")

    nonzero = [results[e][0] for e in ETAS if e > 0]
    # Shape: η=0 is not better than the typical supervised setting.
    assert results[0.0][0] <= max(nonzero) + 0.02


def test_fig7bc_lambdas(benchmark):
    from repro.viz import heatmap

    grid = benchmark.pedantic(
        lambda_grid, args=("unsw_nb15",),
        kwargs=dict(lambdas=LAMBDAS, seed=SEED, scale=BENCH_SCALE), rounds=1, iterations=1,
    )
    matrix = np.array([[grid[(l1, l2)][0] for l2 in LAMBDAS] for l1 in LAMBDAS])
    print("\n" + heatmap(
        matrix,
        [f"λ1={l1}" for l1 in LAMBDAS],
        [f"λ2={l2}" for l2 in LAMBDAS],
        title="Fig. 7(b) — AUPRC heatmap",
    ))
    for title, idx in (("Fig. 7(b) — AUPRC", 0), ("Fig. 7(c) — AUROC", 1)):
        table = ResultTable(
            f"{title}: λ1 (rows) × λ2 (cols), scale={BENCH_SCALE}",
            columns=[f"λ2={l2}" for l2 in LAMBDAS],
            row_header="λ1",
        )
        for lam1 in LAMBDAS:
            table.add_row(f"{lam1}", {
                f"λ2={l2}": f"{grid[(lam1, l2)][idx]:.3f}" for l2 in LAMBDAS
            })
        table.print()
    print("Paper shape: small λ1/λ2 best; decline once either exceeds 1.")

    small = grid[(0.1, 1.0)][0]  # the paper's chosen operating point
    large = grid[(10.0, 10.0)][0]
    assert small >= large - 0.02
