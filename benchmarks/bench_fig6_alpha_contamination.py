"""Fig. 6 — sensitivity to the selection threshold α vs the true
contamination rate (UNSW-NB15).

A matrix sweep α ∈ {1, 5, 10, 15, 20}% × contamination ∈ {1, 5, 10, 15}%.
Expected shape (paper): performance is robust while α ≤ contamination and
degrades once α exceeds the true contamination (too many real normals get
the OE pseudo-label).
"""

from _common import BENCH_SCALE
from repro.eval import ResultTable
from repro.experiments import alpha_contamination_matrix

ALPHAS = [0.01, 0.05, 0.10, 0.15, 0.20]
CONTAMINATIONS = [0.01, 0.05, 0.10, 0.15]
SEED = 0


def test_fig6_alpha_vs_contamination(benchmark):
    from repro.viz import heatmap

    auprc_matrix, auroc_matrix = benchmark.pedantic(
        alpha_contamination_matrix, args=("unsw_nb15",),
        kwargs=dict(alphas=ALPHAS, contaminations=CONTAMINATIONS, seed=SEED, scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    print("\n" + heatmap(
        auprc_matrix,
        [f"α={int(a*100)}%" for a in ALPHAS],
        [f"c={int(c*100)}%" for c in CONTAMINATIONS],
        title="Fig. 6(a) — AUPRC heatmap",
    ))
    for title, matrix in (("AUPRC", auprc_matrix), ("AUROC", auroc_matrix)):
        table = ResultTable(
            f"Fig. 6 — TargAD {title}: α (rows) × contamination (cols), scale={BENCH_SCALE}",
            columns=[f"c={int(c*100)}%" for c in CONTAMINATIONS],
            row_header="alpha",
        )
        for i, alpha in enumerate(ALPHAS):
            table.add_row(f"{int(alpha*100)}%", {
                f"c={int(c*100)}%": f"{matrix[i, j]:.3f}"
                for j, c in enumerate(CONTAMINATIONS)
            })
        table.print()
    print("Paper shape: robust while α ≤ contamination; degrades when α exceeds it.")

    # Shape assertion: at low contamination (1%), a huge α (20%) hurts
    # relative to a matched α (1%).
    assert auprc_matrix[0, 0] >= auprc_matrix[-1, 0] - 0.02
