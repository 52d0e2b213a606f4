"""Active label acquisition loop."""

import numpy as np
import pytest

from repro.core import TargADConfig
from repro.core.active import ActiveTargAD
from repro.data.schema import KIND_TARGET
from repro.lifecycle import make_split_oracle

FAST = TargADConfig(k=2, ae_lr=3e-3, ae_epochs=5, clf_epochs=5, random_state=0)


@pytest.fixture(scope="module")
def pool():
    from tests.conftest import TINY_SPEC, make_tiny_generator
    from repro.data.splits import build_split

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)
    return split


def make_oracle(split):
    """Ground-truth oracle over the unlabeled pool, keyed by row bytes."""
    target_class = {f: i + 1 for i, f in enumerate(split.target_families)}
    return make_split_oracle(split.X_unlabeled, [
        target_class[family] if kind == KIND_TARGET else 0
        for kind, family in zip(split.unlabeled_kind, split.unlabeled_family)
    ])


class TestActiveTargAD:
    def test_loop_runs_and_records_history(self, pool):
        active = ActiveTargAD(FAST, strategy="score", batch_size=15)
        model = active.run(pool.X_unlabeled, pool.X_labeled, pool.y_labeled,
                           make_oracle(pool), n_rounds=3)
        assert len(active.history) == 3
        assert model is active.model_
        scores = model.decision_function(pool.X_test)
        assert np.all(np.isfinite(scores))

    def test_score_strategy_finds_targets(self, pool):
        active = ActiveTargAD(FAST, strategy="score", batch_size=20)
        active.run(pool.X_unlabeled, pool.X_labeled, pool.y_labeled,
                   make_oracle(pool), n_rounds=3)
        # Querying the top of the score ranking must beat the pool's base
        # target rate by a clear factor.
        queried_total = sum(len(r.queried) for r in active.history)
        hit_rate = active.total_targets_found / queried_total
        base_rate = (pool.unlabeled_kind == 1).mean()
        assert hit_rate > 2 * base_rate

    def test_labeled_pool_grows(self, pool):
        active = ActiveTargAD(FAST, strategy="score", batch_size=20)
        active.run(pool.X_unlabeled, pool.X_labeled, pool.y_labeled,
                   make_oracle(pool), n_rounds=3)
        if active.total_targets_found:
            assert active.history[-1].labeled_pool_size > len(pool.X_labeled)

    @pytest.mark.parametrize("strategy", ["uncertainty", "candidate"])
    def test_other_strategies_run(self, pool, strategy):
        active = ActiveTargAD(FAST, strategy=strategy, batch_size=10)
        active.run(pool.X_unlabeled, pool.X_labeled, pool.y_labeled,
                   make_oracle(pool), n_rounds=2)
        assert len(active.history) == 2

    def test_no_repeat_queries(self, pool):
        active = ActiveTargAD(FAST, strategy="uncertainty", batch_size=10)
        active.run(pool.X_unlabeled, pool.X_labeled, pool.y_labeled,
                   lambda X: np.zeros(len(X), dtype=np.int64), n_rounds=3)
        # With an all-negative oracle the pool is never mutated, so queried
        # indices must be disjoint across rounds.
        all_queried = np.concatenate([r.queried for r in active.history])
        assert len(all_queried) == len(set(all_queried.tolist()))

    def test_bad_oracle_shape_rejected(self, pool):
        active = ActiveTargAD(FAST, batch_size=5)
        with pytest.raises(ValueError, match="one label per queried row"):
            active.run(pool.X_unlabeled, pool.X_labeled, pool.y_labeled,
                       lambda X: np.zeros(1, dtype=np.int64), n_rounds=1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ActiveTargAD(strategy="random")
        with pytest.raises(ValueError):
            ActiveTargAD(batch_size=0)
