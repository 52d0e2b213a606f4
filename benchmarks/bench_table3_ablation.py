"""Table III — ablation of the classifier loss terms on UNSW-NB15.

Variants: full TargAD, TargAD_-O (no L_OE), TargAD_-R (no L_RE), and
TargAD_-O-R (plain L_CE). Expected shape (paper): full TargAD best on both
metrics (by 2-4% AUPRC); TargAD_-O-R weakest. Two extension rows probe the
design choices the paper argues for in prose: TargAD_origOE (the original
flat OE pseudo-label) and TargAD_-W (no Eq. 4/5 weighting).
"""

from _common import BENCH_SCALE, BENCH_SEEDS, PAPER_TABLE3_NOTE
from repro.eval import ResultTable, format_mean_std
from repro.experiments.tables import ABLATION_VARIANTS, ablation

VARIANTS = {
    **ABLATION_VARIANTS,
    # Extensions beyond the paper's Table III: the design alternatives the
    # text argues against — the original flat OE label (Section III-B2) and
    # disabling the Eq. 4/5 weight mechanism (RQ4).
    "TargAD_origOE": dict(oe_label_style="uniform"),
    "TargAD_-W": dict(use_weighting=False),
}


def test_table3_ablation(benchmark):
    results = benchmark.pedantic(
        ablation, args=("unsw_nb15",),
        kwargs=dict(variants=VARIANTS, seeds=BENCH_SEEDS, scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    table = ResultTable(
        f"Table III — ablation on UNSW-NB15 (scale={BENCH_SCALE}, {len(BENCH_SEEDS)} seeds)",
        columns=["AUPRC", "AUROC"],
    )
    for name, row in results.items():
        table.add_row(name, {
            "AUPRC": format_mean_std(row["auprc"], row["auprc_std"]),
            "AUROC": format_mean_std(row["auroc"], row["auroc_std"]),
        })
    table.print()
    print(PAPER_TABLE3_NOTE)

    full = results["TargAD"]["auprc"]
    bare = results["TargAD_-O-R"]["auprc"]
    # Shape: the full loss helps over plain cross-entropy.
    assert full >= bare - 0.02, f"full TargAD ({full:.3f}) should beat -O-R ({bare:.3f})"
