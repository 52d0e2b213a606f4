"""Zero-downtime model hot-swap: atomicity, parity, rollback.

A live ScoringPipeline completes a hot-swap under concurrent traffic
with zero dropped batches, the breaker closed throughout, and post-swap
scoring bitwise-identical to a pipeline freshly constructed and
calibrated on the new model.
"""

import threading

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.resilience import SwapError
from repro.serving import ScoringPipeline


@pytest.fixture(scope="module")
def split():
    from tests.conftest import TINY_SPEC, make_tiny_generator
    from repro.data.splits import build_split

    return build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0, random_state=0)


@pytest.fixture(scope="module")
def models(split):
    """Generation A (from scratch) and B (warm-started refit of A)."""
    config = TargADConfig(random_state=0, k=2, ae_lr=3e-3,
                          ae_epochs=10, clf_epochs=12)
    model_a = TargAD(config)
    model_a.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    model_b = TargAD(config)
    model_b.incremental_fit(
        split.X_unlabeled + 0.2, split.X_labeled, split.y_labeled,
        donor=model_a, epochs=4,
    )
    return model_a, model_b


def calibrated(model, split, **kwargs):
    pipe = ScoringPipeline(model, policy="f1", **kwargs)
    pipe.calibrate(split.X_val, split.y_val_binary,
                   X_reference=split.X_unlabeled)
    return pipe


def assert_batches_equal(got, want):
    np.testing.assert_array_equal(got.scores, want.scores)
    np.testing.assert_array_equal(got.routing, want.routing)
    np.testing.assert_array_equal(got.alerts, want.alerts)
    assert got.threshold == want.threshold
    assert got.degraded == want.degraded == False  # noqa: E712


class TestInProcessSwap:
    def test_swap_matches_fresh_pipeline_bitwise(self, split, models):
        model_a, model_b = models
        pipe = calibrated(model_a, split)
        pipe.process(split.X_test[:100])

        pipe.swap_model(model_b, split.X_val, split.y_val_binary,
                        X_reference=split.X_unlabeled)
        fresh = calibrated(model_b, split)

        assert pipe.generation == 1
        assert pipe.threshold_ == fresh.threshold_
        for start in (0, 100, 200):
            X = split.X_test[start:start + 100]
            assert_batches_equal(pipe.process(X), fresh.process(X))

    def test_swapped_drift_monitor_matches_fresh_pipeline_bitwise(self, split, models):
        model_a, model_b = models
        # More rows than the monitor keeps, so it draws a subsample.
        reference = np.concatenate([split.X_unlabeled + 0.01 * i for i in range(3)])
        assert len(reference) > 2000
        pipe = ScoringPipeline(model_a, policy="f1")
        pipe.calibrate(split.X_val, split.y_val_binary, X_reference=reference)
        # The retired generation draws a row sample before the swap.
        large = split.X_test[100:]
        assert len(large) > pipe._monitor.sample_rows
        assert pipe.process(large).drift.n_rows == pipe._monitor.sample_rows
        pipe.swap_model(model_b, split.X_val, split.y_val_binary,
                        X_reference=reference)
        fresh = ScoringPipeline(model_b, policy="f1")
        fresh.calibrate(split.X_val, split.y_val_binary, X_reference=reference)

        # 64 rows are below the window size: neither pipeline tests them.
        small = split.X_test[:64]
        assert pipe._monitor.min_rows == fresh._monitor.min_rows > len(small)
        assert pipe.process(small).drift is None
        assert fresh.process(small).drift is None
        # A probe of min_rows rows is tested alone, leaving the window as is,
        # and a probe above sample_rows is tested on the first sample of a
        # restarted sample stream.
        for probe in (split.X_test[64:64 + fresh._monitor.min_rows], large):
            got, want = pipe.process(probe).drift, fresh.process(probe).drift
            assert got.n_rows == want.n_rows
            assert got.statistics.tobytes() == want.statistics.tobytes()
            assert got.drifted_features == want.drifted_features
        assert got.n_rows == fresh._monitor.sample_rows < len(large)

    def test_swap_emits_telemetry(self, split, models):
        from repro.obs import TelemetryRegistry

        model_a, model_b = models
        registry = TelemetryRegistry()
        pipe = calibrated(model_a, split, telemetry=registry)
        pipe.swap_model(model_b, split.X_val, split.y_val_binary)
        assert registry.counters["serve.swap.success"] == 1
        assert registry.gauges["serve.generation"] == 1.0
        assert any(e.name == "serve.swap" for e in registry.events)

    def test_unfitted_candidate_rejected_cleanly(self, split, models):
        model_a, _ = models
        pipe = calibrated(model_a, split)
        before = pipe.process(split.X_test[:80])
        with pytest.raises(SwapError, match="staging failed"):
            pipe.swap_model(TargAD(TargADConfig(random_state=0)),
                            split.X_val, split.y_val_binary)
        assert pipe.generation == 0
        assert pipe.model is model_a
        assert_batches_equal(pipe.process(split.X_test[:80]), before)
        assert pipe.circuit_breaker.state == "closed"

    def test_wrong_width_candidate_rejected(self, split, models):
        model_a, _ = models
        narrow = TargAD(TargADConfig(random_state=0, k=2, ae_epochs=3,
                                     clf_epochs=3))
        narrow.fit(split.X_unlabeled[:, :-1], split.X_labeled[:, :-1],
                   split.y_labeled)
        pipe = calibrated(model_a, split)
        with pytest.raises(SwapError, match="features"):
            pipe.swap_model(narrow, split.X_val[:, :-1], split.y_val_binary)
        assert pipe.generation == 0

    def test_fault_at_flip_restores_old_generation(self, split, models):
        model_a, model_b = models
        pipe = calibrated(model_a, split)
        before = pipe.process(split.X_test[:80])

        def fire(phase):
            if phase == "flip":
                raise RuntimeError("chaos at flip")

        with pytest.raises(SwapError, match="during flip"):
            pipe.swap_model(model_b, split.X_val, split.y_val_binary,
                            fault_points=fire)
        assert pipe.generation == 0 and pipe.model is model_a
        assert_batches_equal(pipe.process(split.X_test[:80]), before)
        assert pipe.circuit_breaker.state == "closed"

    def test_concurrent_traffic_never_sees_half_swapped_state(self, split, models):
        model_a, model_b = models
        pipe = calibrated(model_a, split)
        fresh_a = calibrated(model_a, split)
        fresh_b = calibrated(model_b, split)
        X = split.X_test[:120]
        want_a = fresh_a.process(X)
        want_b = fresh_b.process(X)

        results, errors = [], []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    results.append(pipe.process(X))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            pipe.swap_model(model_b, split.X_val, split.y_val_binary,
                            X_reference=split.X_unlabeled)
        finally:
            stop.set()
            thread.join(30.0)

        assert not errors
        assert len(results) > 0
        # Every batch matches exactly one full generation — bitwise.
        for batch in results:
            if batch.threshold == want_a.threshold and np.array_equal(
                batch.scores, want_a.scores
            ):
                np.testing.assert_array_equal(batch.routing, want_a.routing)
            else:
                assert_batches_equal(batch, want_b)
        assert pipe.circuit_breaker.state == "closed"

