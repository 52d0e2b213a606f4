"""Fig. 3 — convergence analysis on UNSW-NB15.

(a) TargAD's training-loss curve per epoch — expected shape: loss falls
    and stabilizes within a narrow band after ~half the epochs.
(b) Per-epoch *test* AUPRC of TargAD vs semi-supervised baselines —
    expected shape: TargAD reaches the best AUPRC and dominates the
    baselines' curves by the end of training.
"""

from _common import BENCH_SCALE
from repro.eval import ResultTable
from repro.experiments import convergence_curves

BASELINES = ["DevNet", "DeepSAD", "PReNet"]
SEED = 0


def test_fig3_convergence(benchmark):
    from repro.viz import line_chart, sparkline

    result = benchmark.pedantic(
        convergence_curves, args=("unsw_nb15",),
        kwargs=dict(baselines=BASELINES, seed=SEED, scale=BENCH_SCALE),
        rounds=1, iterations=1,
    )
    loss_curve, curves = result.loss_curve, result.auprc_curves

    print(f"\nFig. 3(a) — TargAD training loss per epoch (scale={BENCH_SCALE}):")
    print("  " + sparkline(loss_curve))
    print("  " + " ".join(f"{v:.3f}" for v in loss_curve))
    half = len(loss_curve) // 2
    tail_band = max(loss_curve[half:]) - min(loss_curve[half:])
    head_band = max(loss_curve[:half]) - min(loss_curve[:half])
    print(f"  loss range first half={head_band:.3f}, second half={tail_band:.3f} "
          "(paper: narrow fluctuation after epoch 15)")

    table = ResultTable(
        "Fig. 3(b) — test AUPRC at selected epochs",
        columns=["epoch 1", "25%", "50%", "75%", "final"],
    )
    for name, curve in curves.items():
        n = len(curve)
        picks = [0, n // 4, n // 2, (3 * n) // 4, n - 1]
        table.add_row(name, {
            col: f"{curve[i]:.3f}" for col, i in zip(table.columns, picks)
        })
    table.print()
    print(line_chart(curves, title="Fig. 3(b) — test AUPRC per epoch",
                     y_label="AUPRC", width=60, height=12))
    print("Paper shape: TargAD converges to the best AUPRC of all curves.")

    # Shape assertions: loss decreases; late band is narrower than early;
    # TargAD's final AUPRC tops the baselines' finals.
    assert loss_curve[-1] < loss_curve[0]
    assert tail_band <= head_band
    final = result.final_auprc()
    assert final["TargAD"] >= max(v for k, v in final.items() if k != "TargAD") - 0.05
