"""Extension — active label acquisition (not in the paper).

The paper assumes a fixed labeled set; operationally, labels arrive from
analysts reviewing queued alerts. This bench compares acquisition
strategies for spending a fixed labeling budget on the UNSW-NB15 analog:
``score`` (verify the top of the queue), ``uncertainty`` (query near the
decision boundary), ``candidate`` (confirm high-weight OE candidates), and
a random baseline. Reported: targets found with the budget and final test
AUPRC after refitting with the acquired labels.
"""

import numpy as np

from _common import BENCH_SCALE
from repro.core import TargAD, TargADConfig
from repro.core.active import ActiveTargAD
from repro.data import load_dataset
from repro.data.schema import KIND_TARGET
from repro.eval import ResultTable
from repro.eval.registry import DATASET_K
from repro.lifecycle import make_split_oracle
from repro.metrics import auprc

SEED = 0
BATCH = 20
ROUNDS = 3


def run_strategies():
    split = load_dataset("unsw_nb15", random_state=SEED, scale=BENCH_SCALE)
    target_class = {f: i + 1 for i, f in enumerate(split.target_families)}
    oracle = make_split_oracle(split.X_unlabeled, [
        target_class[family] if kind == KIND_TARGET else 0
        for kind, family in zip(split.unlabeled_kind, split.unlabeled_family)
    ])
    config = TargADConfig(random_state=SEED, k=DATASET_K["unsw_nb15"])

    results = {}
    for strategy in ("score", "uncertainty", "candidate"):
        active = ActiveTargAD(config, strategy=strategy, batch_size=BATCH)
        model = active.run(split.X_unlabeled, split.X_labeled, split.y_labeled,
                           oracle, n_rounds=ROUNDS)
        results[strategy] = {
            "found": active.total_targets_found,
            "auprc": auprc(split.y_test_binary, model.decision_function(split.X_test)),
        }

    # Random baseline: same budget, uniform queries.
    rng = np.random.default_rng(SEED)
    queried = rng.choice(len(split.X_unlabeled), size=BATCH * ROUNDS, replace=False)
    labels = oracle(split.X_unlabeled[queried])
    found = int((labels > 0).sum())
    confirmed = queried[labels > 0]
    X_l = np.concatenate([split.X_labeled, split.X_unlabeled[confirmed]])
    y_l = np.concatenate([split.y_labeled, labels[labels > 0] - 1])
    keep = np.ones(len(split.X_unlabeled), dtype=bool)
    keep[confirmed] = False
    model = TargAD(config)
    model.fit(split.X_unlabeled[keep], X_l, y_l)
    results["random"] = {
        "found": found,
        "auprc": auprc(split.y_test_binary, model.decision_function(split.X_test)),
    }
    base_rate = float((split.unlabeled_kind == KIND_TARGET).mean())
    return results, base_rate


def test_active_learning_strategies(benchmark):
    results, base_rate = benchmark.pedantic(run_strategies, rounds=1, iterations=1)
    table = ResultTable(
        f"Extension — active acquisition, budget {BATCH * ROUNDS} queries "
        f"(scale={BENCH_SCALE}; pool target rate {base_rate:.1%})",
        columns=["targets found", "final AUPRC"],
        row_header="Strategy",
    )
    for name, row in results.items():
        table.add_row(name, {
            "targets found": str(row["found"]),
            "final AUPRC": f"{row['auprc']:.3f}",
        })
    table.print()

    # Shape: the informed strategies should find targets at well above the
    # pool base rate, and at least one should beat random acquisition.
    budget = BATCH * ROUNDS
    best_informed = max(results[s]["found"] for s in ("score", "uncertainty", "candidate"))
    assert best_informed / budget > 2 * base_rate
    assert best_informed >= results["random"]["found"]
