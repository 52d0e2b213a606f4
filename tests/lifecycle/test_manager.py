"""LifecycleManager: drift debounce, refit cycle, gate, rollback."""

import numpy as np
import pytest

from repro.lifecycle import DriftPolicy, LifecycleManager
from repro.obs import TelemetryRegistry
from repro.resilience import SwapFaultInjector, SwapFaultPlan
from repro.serving import ScoringPipeline


def make_manager(split, model, *, policy=None, oracle=None, injector=None,
                 background=False, telemetry=None, checkpoint_dir=None):
    pipe = ScoringPipeline(model, policy="f1", drift_threshold=0.3,
                           telemetry=telemetry)
    pipe.calibrate(split.X_val, split.y_val_binary,
                   X_reference=split.X_unlabeled)
    return LifecycleManager(
        pipe, split.X_unlabeled, split.X_labeled, split.y_labeled,
        split.X_val, split.y_val_binary, oracle=oracle,
        policy=policy if policy is not None else DriftPolicy(
            confirm_checks=2, cooldown_batches=4, label_budget=8,
            refit_epochs=2, min_auprc_ratio=0.3,
        ),
        background=background, fault_injector=injector,
        checkpoint_dir=checkpoint_dir, telemetry=telemetry, seed=0,
    )


class TestDriftPolicy:
    @pytest.mark.parametrize("kwargs", [
        dict(confirm_checks=0),
        dict(cooldown_batches=-1),
        dict(label_budget=-1),
        dict(refit_epochs=0),
        dict(recent_rows=0),
        dict(min_auprc_ratio=-0.1),
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriftPolicy(**kwargs)


class TestDebounce:
    def test_single_drifted_batch_does_not_trigger(self, split, model):
        manager = make_manager(split, model)
        manager.process(split.X_test[:60] + 6.0)
        manager.process(split.X_test[:60])  # back to normal: streak resets
        manager.process(split.X_test[60:120] + 6.0)
        assert manager.pipeline.generation == 0
        assert manager.history == []

    def test_consecutive_drift_confirms_and_swaps(self, split, model):
        manager = make_manager(split, model)
        for i in range(2):
            manager.process(split.X_test[i * 60:(i + 1) * 60] + 6.0)
        assert manager.pipeline.generation == 1
        assert [e.kind for e in manager.history] == ["drift_confirmed", "swap"]

    def test_cooldown_blocks_immediate_retrigger(self, split, model):
        manager = make_manager(split, model)
        for i in range(6):  # confirm at 2; 4 more land inside the cooldown
            manager.process(split.X_test[:60] + 6.0)
        assert manager.pipeline.generation == 1
        assert sum(1 for e in manager.history if e.kind == "swap") == 1

    def test_serving_continues_after_swap(self, split, model):
        manager = make_manager(split, model)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        batch = manager.process(split.X_test[60:120])
        assert np.isfinite(batch.scores[batch.scored]).all()
        assert manager.pipeline.circuit_breaker.state == "closed"


class TestDriftWindow:
    """Small requests reach the debounce only through their window's report."""

    def test_shifted_small_requests_confirm_within_the_window_bound(self, split, model):
        manager = make_manager(split, model)
        min_rows = manager.pipeline._monitor.min_rows
        per_window = -(-min_rows // 8)
        bound = manager.policy.confirm_checks * per_window
        reports, confirmed_at = [], None
        for i in range(bound):
            reports.append(manager.process(split.X_test[8 * i:8 * (i + 1)] + 6.0).drift)
            if manager.history:
                confirmed_at = i + 1
                break
        assert manager.history[0].kind == "drift_confirmed"
        assert confirmed_at <= bound
        assert all(r is None for r in reports[:per_window - 1])

    def test_batch_without_a_report_leaves_the_streak(self, split, model):
        manager = make_manager(split, model)
        manager.process(split.X_test[:60] + 6.0)
        assert manager._streak == 1
        assert manager.process(split.X_test[60:68]).drift is None
        assert manager._streak == 1 and manager.history == []
        manager.process(split.X_test[68:128] + 6.0)
        assert [e.kind for e in manager.history] == ["drift_confirmed", "swap"]

    def test_cooldown_counts_batches_without_reports(self, split, model):
        manager = make_manager(split, model)
        for i in range(2):
            manager.process(split.X_test[i * 60:(i + 1) * 60] + 6.0)
        assert manager._cooldown == manager.policy.cooldown_batches == 4
        for i in range(4):
            assert manager.process(split.X_test[120 + 8 * i:128 + 8 * i]).drift is None
        assert manager._cooldown == 0


class TestRecentRows:
    def test_recent_rows_match_stacking_every_batch_and_own_their_memory(self, split, model):
        keep = 50
        manager = make_manager(split, model, policy=DriftPolicy(
            confirm_checks=100, cooldown_batches=0, recent_rows=keep,
            refit_epochs=2, min_auprc_ratio=0.3,
        ))
        stacked = None
        start = 0
        # Scored rows per batch: below, equal to and above recent_rows.
        for size, n_quarantined in ((30, 0), (50, 0), (84, 4), (20, 0), (55, 5)):
            X = split.X_test[start:start + size].copy()
            start += size
            X[:n_quarantined, 1] = np.nan
            batch = manager.process(X)
            assert len(batch.scored) == size - n_quarantined
            scored = X[batch.scored]
            stacked = scored if stacked is None else np.vstack([stacked, scored])[-keep:]
            assert manager._recent.tobytes() == stacked.tobytes()
            assert manager._recent.shape == stacked.shape
            assert manager._recent.flags.owndata


class TestLabelQuery:
    def test_oracle_labels_grow_the_labeled_pool(self, split, model):
        calls = []

        def oracle(rows):
            calls.append(len(rows))
            return np.ones(len(rows), dtype=np.int64)  # everything class 1

        manager = make_manager(split, model, oracle=oracle)
        n_before = len(manager._X_labeled)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        assert calls == [8]  # one query, budget-bounded
        assert len(manager._X_labeled) == n_before + 8
        assert set(manager._y_labeled[-8:]) == {0}  # stored 0-based

    def test_unconfirmed_answers_not_added(self, split, model):
        manager = make_manager(
            split, model,
            oracle=lambda rows: np.zeros(len(rows), dtype=np.int64),
        )
        n_before = len(manager._X_labeled)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        assert len(manager._X_labeled) == n_before
        swap = [e for e in manager.history if e.kind == "swap"][0]
        assert swap.details["labels_queried"] == 8
        assert swap.details["labels_found"] == 0

    def test_no_oracle_means_no_queries(self, split, model):
        manager = make_manager(split, model, oracle=None)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        swap = [e for e in manager.history if e.kind == "swap"][0]
        assert swap.details["labels_queried"] == 0

    def test_unspent_budget_carries_to_next_cycle(self, split, model):
        calls = []

        def oracle(rows):
            calls.append(len(rows))
            return np.ones(len(rows), dtype=np.int64)

        telemetry = TelemetryRegistry()
        manager = make_manager(
            split, model, oracle=oracle, telemetry=telemetry,
            policy=DriftPolicy(confirm_checks=2, cooldown_batches=0,
                               label_budget=200, refit_epochs=2,
                               min_auprc_ratio=0.3),
        )
        for i in range(2):
            manager.process(split.X_test[i * 60:(i + 1) * 60] + 6.0)
        # The recent pool (~120 rows) is smaller than the 200-row budget,
        # so the remainder rolls over instead of being forfeited.
        assert len(calls) == 1 and calls[0] < 200
        carried = 200 - calls[0]
        assert manager._label_carry == carried
        assert telemetry.counters["lifecycle.labels_carried"] == carried
        assert telemetry.gauges["lifecycle.label_carry"] == float(carried)
        swap = [e for e in manager.history if e.kind == "swap"][0]
        assert swap.details["labels_carried"] == carried

        manager.refit_now()
        # Amortized budget = base 200 + carried; still pool-bounded, and
        # the new remainder reflects the enlarged budget.
        assert len(calls) == 2
        assert manager._label_carry == 200 + carried - calls[1]


class TestGateAndRollback:
    def test_impossible_gate_rolls_back(self, split, model):
        telemetry = TelemetryRegistry()
        manager = make_manager(
            split, model, telemetry=telemetry,
            policy=DriftPolicy(confirm_checks=2, cooldown_batches=4,
                               refit_epochs=2, min_auprc_ratio=100.0),
        )
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        assert manager.pipeline.generation == 0
        rollback = [e for e in manager.history if e.kind == "rollback"][0]
        assert rollback.details["phase"] == "validate"
        assert rollback.details["error"] == "RefitRejected"
        assert telemetry.counters["lifecycle.rollbacks"] == 1
        # the old generation still serves
        batch = manager.process(split.X_test[60:120])
        assert np.isfinite(batch.scores[batch.scored]).all()

    def test_injected_refit_fault_rolls_back(self, split, model):
        injector = SwapFaultInjector(SwapFaultPlan(fail_phases=("refit",)))
        manager = make_manager(split, model, injector=injector)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        assert manager.pipeline.generation == 0
        rollback = [e for e in manager.history if e.kind == "rollback"][0]
        assert rollback.details["phase"] == "refit"
        assert injector.fired == [(1, "refit")]

    def test_fault_on_second_cycle_only(self, split, model):
        injector = SwapFaultInjector(
            SwapFaultPlan(fail_phases=("assemble",), on_cycle=(2,))
        )
        manager = make_manager(split, model, injector=injector)
        for i in range(2):  # cycle 1: clean swap
            manager.process(split.X_test[:60] + 6.0)
        assert manager.pipeline.generation == 1
        for i in range(10):  # drain cooldown, then confirm again
            manager.process(split.X_test[:60] + 9.0)
        assert manager.pipeline.generation == 1  # cycle 2 faulted
        kinds = [e.kind for e in manager.history]
        assert kinds.count("rollback") == 1


class TestBackgroundRefit:
    def test_background_swap_completes(self, split, model):
        manager = make_manager(split, model, background=True)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        manager.wait(timeout=60.0)
        assert manager.pipeline.generation == 1
        # serving during/after the background refit never faulted
        assert manager.pipeline.circuit_breaker.state == "closed"


class TestCycle:
    def test_refit_now_forces_a_cycle(self, split, model):
        manager = make_manager(split, model)
        manager.process(split.X_test[:120])  # remember some served rows
        assert manager.refit_now() is True
        assert manager.pipeline.generation == 1

    def test_checkpoints_written_per_cycle(self, split, model, tmp_path):
        manager = make_manager(split, model, checkpoint_dir=tmp_path)
        manager.process(split.X_test[:120])
        assert manager.refit_now() is True
        assert (tmp_path / "cycle-1").is_dir()
        assert list((tmp_path / "cycle-1").glob("ckpt-*.npz"))

    def test_report_shape(self, split, model):
        manager = make_manager(split, model)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        report = manager.report()
        assert report["generation"] == 1
        assert report["swaps"] == 1 and report["rollbacks"] == 0
        assert report["cycles"] == 1
        kinds = [e["kind"] for e in report["events"]]
        assert kinds == ["drift_confirmed", "swap"]

    def test_telemetry_series(self, split, model):
        telemetry = TelemetryRegistry()
        manager = make_manager(split, model, telemetry=telemetry)
        for i in range(2):
            manager.process(split.X_test[:60] + 6.0)
        assert telemetry.counters["lifecycle.drift_confirmed"] == 1
        assert telemetry.counters["lifecycle.refits"] == 1
        assert telemetry.counters["lifecycle.swaps"] == 1
        assert telemetry.gauges["lifecycle.generation"] == 1.0
        cycles = [e for e in telemetry.events if e.name == "lifecycle.cycle"]
        assert len(cycles) == 1
        assert cycles[0].fields["outcome"] == "swap"
        assert cycles[0].fields["auprc_ratio"] > 0
