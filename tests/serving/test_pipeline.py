"""Scoring pipeline end-to-end."""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.data.schema import KIND_TARGET
from repro.serving import ScoringPipeline


@pytest.fixture(scope="module")
def fitted():
    from tests.conftest import TINY_SPEC, make_tiny_generator
    from repro.data.splits import build_split

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15, clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


class TestCalibration:
    def test_f1_policy(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1")
        pipe.calibrate(split.X_val, split.y_val_binary)
        assert 0.0 <= pipe.threshold_ <= 1.0

    def test_recall_policy_catches_target_fraction(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="recall", target_recall=0.8)
        pipe.calibrate(split.X_val, split.y_val_binary)
        scores = model.decision_function(split.X_val)
        y = split.y_val_binary
        recall = ((scores >= pipe.threshold_) & (y == 1)).sum() / y.sum()
        assert recall >= 0.8

    def test_budget_policy_needs_no_labels(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", review_budget=25)
        pipe.calibrate(split.X_val)
        scores = model.decision_function(split.X_val)
        assert (scores >= pipe.threshold_).sum() == 25

    def test_supervised_policy_without_labels_rejected(self, fitted):
        model, split = fitted
        with pytest.raises(ValueError, match="needs y_val"):
            ScoringPipeline(model, policy="f1").calibrate(split.X_val)

    def test_invalid_policy(self, fitted):
        model, _ = fitted
        with pytest.raises(ValueError):
            ScoringPipeline(model, policy="vibes")

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError):
            ScoringPipeline(TargAD(TargADConfig()))


class TestProcessing:
    def test_alert_batch_structure(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        assert len(batch.scores) == len(split.X_test)
        assert batch.routing.shape == (len(split.X_test),)
        assert "scored" in batch.summary()

    def test_alerts_sorted_by_score(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        alert_scores = batch.scores[batch.alerts]
        assert np.all(np.diff(alert_scores) <= 1e-12)

    def test_alerts_are_routed_targets_above_threshold(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        assert np.all(batch.scores[batch.alerts] >= batch.threshold)
        assert np.all(batch.routing[batch.alerts] == KIND_TARGET)

    def test_alert_quality(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        batch = pipe.process(split.X_test)
        if batch.n_alerts:
            precision = (split.test_kind[batch.alerts] == KIND_TARGET).mean()
            assert precision > 0.5

    def test_drift_detected_on_shifted_batch(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", review_budget=10,
                               drift_threshold=0.25)
        pipe.calibrate(split.X_val, X_reference=split.X_unlabeled)
        clean = pipe.process(split.X_test)
        assert clean.drift is not None and not clean.drift.drifted
        shifted = split.X_test.copy()
        shifted[:, 0] = np.clip(shifted[:, 0] + 0.7, 0, 1.5)
        drifted = pipe.process(shifted)
        assert drifted.drift.drifted

    def test_uncalibrated_process_rejected(self, fitted):
        model, split = fitted
        with pytest.raises(RuntimeError, match="not calibrated"):
            ScoringPipeline(model).process(split.X_test)

    def test_drift_disabled(self, fitted):
        model, split = fitted
        pipe = ScoringPipeline(model, policy="budget", monitor_drift=False)
        pipe.calibrate(split.X_val)
        assert pipe.process(split.X_test).drift is None


def window_pipeline(model, split, telemetry=None):
    return ScoringPipeline(model, policy="f1", telemetry=telemetry).calibrate(
        split.X_val, split.y_val_binary, X_reference=split.X_unlabeled
    )


class TestDriftWindow:
    """Requests below the monitor's ``min_rows`` share one tested window."""

    def test_small_requests_report_once_their_window_fills(self, fitted):
        model, split = fitted
        pipe = window_pipeline(model, split)
        monitor = pipe._monitor
        assert monitor.min_rows == 88
        requests = [split.X_test[8 * i:8 * (i + 1)].copy() for i in range(12)]
        requests[2][:2, 0] = np.nan  # quarantined rows never join the window
        reports = [pipe.process(X).drift for X in requests]
        # 10 requests hold 78 scored rows, the 11th brings the window to 86
        # and the 12th to 94.
        assert [r is not None for r in reports] == [False] * 11 + [True]
        window = np.concatenate([requests[0], requests[1], requests[2][2:], *requests[3:]])
        want = monitor.check(window)
        assert reports[-1].n_rows == 94
        assert reports[-1].statistics.tobytes() == want.statistics.tobytes()
        assert reports[-1].drifted_features == want.drifted_features

    def test_large_request_is_tested_alone(self, fitted):
        model, split = fitted
        pipe = window_pipeline(model, split)
        assert pipe.process(split.X_test[:8]).drift is None
        large = split.X_test[8:8 + pipe._monitor.min_rows]
        got = pipe.process(large).drift
        want = pipe._monitor.check(large)
        assert got.n_rows == len(large)
        assert got.statistics.tobytes() == want.statistics.tobytes()

    def test_window_reports_reach_telemetry(self, fitted):
        from repro.obs import TelemetryRegistry

        model, split = fitted
        registry = TelemetryRegistry()
        pipe = window_pipeline(model, split, telemetry=registry)
        calibrated = [e for e in registry.events if e.name == "serve.calibrated"]
        assert calibrated[-1].fields["drift_min_rows"] == 88
        assert calibrated[-1].fields["drift_sample_rows"] == 176
        for i in range(11):
            pipe.process(split.X_test[8 * i:8 * (i + 1)])
        assert registry.counter("serve.batches") == 11
        assert registry.counter("drift.checks") == 1

    def test_swap_starts_the_new_generation_with_an_empty_window(self, fitted):
        base, split = fitted
        pipe = window_pipeline(base, split)
        for i in range(10):
            assert pipe.process(split.X_test[8 * i:8 * (i + 1)]).drift is None
        pipe.swap_model(copy.deepcopy(base), split.X_val, split.y_val_binary,
                        X_reference=split.X_unlabeled)
        fresh = window_pipeline(base, split)
        for i in range(10, 21):
            X = split.X_test[8 * i:8 * (i + 1)]
            got, want = pipe.process(X).drift, fresh.process(X).drift
            if want is None:
                assert got is None
            else:
                assert got.statistics.tobytes() == want.statistics.tobytes()
        assert got is not None and got.n_rows == 88


@pytest.fixture
def gc_disabled():
    """Only reference counting frees objects inside the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestReferenceCycles:
    """A replaced deployment is freed at once, not at the next collection."""

    def test_served_pipeline_and_its_model_freed_by_del(self, fitted, gc_disabled):
        base, split = fitted
        model = copy.deepcopy(base)
        pipe = ScoringPipeline(model, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        pipe.process(split.X_test[:50])
        pipe_ref, model_ref = weakref.ref(pipe), weakref.ref(model)
        del pipe, model
        assert pipe_ref() is None
        assert model_ref() is None

    def test_model_retired_by_swap_freed_when_swap_returns(self, fitted, gc_disabled):
        base, split = fitted
        old, new = copy.deepcopy(base), copy.deepcopy(base)
        pipe = ScoringPipeline(old, policy="f1").calibrate(
            split.X_val, split.y_val_binary
        )
        pipe.process(split.X_test[:50])
        old_ref = weakref.ref(old)
        del old
        pipe.swap_model(new, split.X_val, split.y_val_binary)
        assert pipe.model is new
        assert old_ref() is None
