"""Executor seam: the pipeline scores in-process through ``FallbackChain.score``.

The chain holds one inline executor and no reference back to the
pipeline; the pipeline hands it the current model on every batch. This
module pins the contract the pipeline relies on: bitwise parity with
``TargAD.score_batch`` (with quarantined rows and across a hot swap), one
``chain.score`` call per scored batch, and model faults reaching the
circuit breaker and the degraded fallback.
"""

import numpy as np
import pytest

from repro.core import TargAD, TargADConfig
from repro.obs import TelemetryRegistry
from repro.serving import ROUTE_QUARANTINED, ScoringPipeline
from repro.serving.executor import FallbackChain


@pytest.fixture(scope="module")
def fitted():
    from repro.data.splits import build_split
    from tests.conftest import TINY_SPEC, make_tiny_generator

    split = build_split(make_tiny_generator(0), TINY_SPEC, scale=1.0,
                        random_state=0)
    model = TargAD(TargADConfig(random_state=0, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    model.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return model, split


@pytest.fixture(scope="module")
def model_b(fitted):
    _, split = fitted
    other = TargAD(TargADConfig(random_state=7, k=2, ae_lr=3e-3, ae_epochs=15,
                                clf_epochs=20))
    other.fit(split.X_unlabeled, split.X_labeled, split.y_labeled)
    return other


def make_pipeline(model, split, **kwargs):
    pipe = ScoringPipeline(
        model, policy="budget", review_budget=10, monitor_drift=False, **kwargs,
    )
    pipe.calibrate(split.X_val)
    return pipe


def assert_batches_equal(got, want):
    np.testing.assert_array_equal(got.scores, want.scores)
    np.testing.assert_array_equal(got.routing, want.routing)
    np.testing.assert_array_equal(got.alerts, want.alerts)
    np.testing.assert_array_equal(got.deferred, want.deferred)
    np.testing.assert_array_equal(got.quarantined, want.quarantined)
    assert got.degraded == want.degraded


class FaultyExecutor:
    """Stands in for the inline executor and raises a model fault."""

    name = "faulty"

    def score(self, model, X):
        raise ValueError("injected model fault")


class TestBitwiseParity:
    def test_score_matches_inline_bitwise(self, fitted):
        model, split = fitted
        scores, routing = FallbackChain("ed").score(model, split.X_test)
        exp_s, exp_r = model.score_batch(split.X_test, strategy="ed")
        np.testing.assert_array_equal(scores, exp_s)
        np.testing.assert_array_equal(routing, exp_r)

    def test_pipeline_parity_with_quarantine(self, fitted):
        model, split = fitted
        pipe = make_pipeline(model, split)
        X = split.X_test.copy()
        X[3, 0] = np.nan
        got = pipe.process(X)
        kept = np.delete(np.arange(len(X)), 3)
        exp_s, exp_r = model.score_batch(X[kept], strategy="ed")
        np.testing.assert_array_equal(got.scores[kept], exp_s)
        np.testing.assert_array_equal(got.routing[kept], exp_r)
        assert np.isnan(got.scores[3]) and got.routing[3] == ROUTE_QUARANTINED
        np.testing.assert_array_equal(got.quarantined, [3])
        assert not got.degraded

    def test_post_swap_parity(self, fitted, model_b):
        """After a hot swap the pipeline serves the new generation
        bitwise-identically to a fresh pipeline on that model."""
        model, split = fitted
        pipe = make_pipeline(model, split)
        fresh_b = make_pipeline(model_b, split)
        X = split.X_test[:96]
        pipe.process(X)
        pipe.swap_model(model_b, split.X_val)
        assert pipe.generation == 1
        assert_batches_equal(pipe.process(X), fresh_b.process(X))

    def test_chain_scores_the_model_it_is_handed(self, fitted, model_b):
        model, split = fitted
        chain = FallbackChain("ed")
        X = split.X_test[:32]
        for m in (model, model_b, model):
            np.testing.assert_array_equal(
                chain.score(m, X)[0], m.score_batch(X, strategy="ed")[0]
            )


class TestChainSurface:
    def test_chain_holds_one_inline_executor(self, fitted):
        model, split = fitted
        pipe = make_pipeline(model, split, strategy="msp")
        assert [ex.name for ex in pipe.chain] == ["inline"]
        assert pipe.chain.executors[0].strategy == "msp"

    def test_chain_score_called_once_per_scored_batch(self, fitted, monkeypatch):
        model, split = fitted
        calls = []
        original = FallbackChain.__dict__["score"]

        def counting(self, model, X):
            calls.append(len(X))
            return original(self, model, X)

        monkeypatch.setattr(FallbackChain, "score", counting)
        pipe = make_pipeline(model, split)
        pipe.process(split.X_test[:40])
        assert calls == [40]
        all_bad = np.full((5, split.X_test.shape[1]), np.nan)
        pipe.process(all_bad)  # nothing left to score
        assert calls == [40]


class TestBreakerContract:
    def test_model_fault_reports_to_breaker(self, fitted):
        model, split = fitted
        telemetry = TelemetryRegistry()
        pipe = make_pipeline(model, split, telemetry=telemetry)
        pipe.chain.executors[0] = FaultyExecutor()
        batch = pipe.process(split.X_test)
        assert batch.degraded  # scored by the reconstruction fallback
        assert telemetry.counters["resilience.scoring_faults"] == 1
        event = [e for e in telemetry.events if e.name == "serve.batch"][-1]
        assert event.fields["executor"] == "none"
