"""Eq. 9 scoring and the Section III-C normality rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.scoring import (
    is_normal_rule, route_from_logits, softmax, target_anomaly_score,
)
from repro.data.schema import KIND_NONTARGET, KIND_NORMAL, KIND_TARGET


class TestSoftmax:
    def test_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).standard_normal((5, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_stable_for_huge_logits(self):
        probs = softmax(np.array([[1e6, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestTargetAnomalyScore:
    def test_takes_max_over_first_m(self):
        probs = np.array([[0.1, 0.6, 0.2, 0.1]])
        assert target_anomaly_score(probs, m=2)[0] == pytest.approx(0.6)

    def test_ignores_normal_dims(self):
        probs = np.array([[0.1, 0.05, 0.85]])
        assert target_anomaly_score(probs, m=2)[0] == pytest.approx(0.1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            target_anomaly_score(np.ones((3, 2)), m=2)  # needs k >= 1

    def test_ood_calibrated_instance_scores_one_over_m(self):
        # A perfectly OE-calibrated non-target: uniform over the m dims.
        m, k = 3, 4
        probs = np.zeros((1, m + k))
        probs[0, :m] = 1 / m
        assert target_anomaly_score(probs, m)[0] == pytest.approx(1 / m)


class TestNormalRule:
    def test_confident_normal_classified_normal(self):
        m, k = 2, 3
        probs = np.array([[0.02, 0.03, 0.9, 0.03, 0.02]])
        assert is_normal_rule(probs, m, k)[0]

    def test_confident_target_classified_anomalous(self):
        m, k = 2, 3
        probs = np.array([[0.9, 0.02, 0.04, 0.02, 0.02]])
        assert not is_normal_rule(probs, m, k)[0]

    def test_threshold_is_k_over_m_plus_k(self):
        m, k = 2, 2
        just_above = np.array([[0.24, 0.25, 0.26, 0.25]])  # normal mass 0.51 > 0.5
        just_below = np.array([[0.26, 0.25, 0.25, 0.24]])  # normal mass 0.49 < 0.5
        assert is_normal_rule(just_above, m, k)[0]
        assert not is_normal_rule(just_below, m, k)[0]

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            is_normal_rule(np.ones((2, 4)), m=2, k=3)


def reference_route(logits, probs, m, k, strategy):
    """The three-step routing that the one-pass ``route_from_logits`` replaced."""
    normal_mask = is_normal_rule(probs, m, k)
    result = np.full(len(logits), KIND_TARGET, dtype=np.int64)
    result[normal_mask] = KIND_NORMAL
    anomalous = ~normal_mask
    if anomalous.any():
        strat = strategy() if callable(strategy) else strategy
        ood_mask = strat.is_ood(logits[anomalous])
        anomalous_idx = np.flatnonzero(anomalous)
        result[anomalous_idx[ood_mask]] = KIND_NONTARGET
    return result


class RecordingStrategy:
    """Calls a row OOD when its first logit is positive; records what it saw."""

    def __init__(self):
        self.seen = []

    def is_ood(self, logits):
        self.seen.append(logits.copy())
        return logits[:, 0] > 0


class TestRouteFromLogits:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3), st.integers(1, 4),
        arrays(np.float64, st.tuples(st.integers(0, 40), st.just(7)),
               elements=st.floats(-6, 6, allow_nan=False, width=64)),
    )
    def test_equals_the_three_step_reference(self, m, k, raw):
        logits = raw[:, : m + k]
        probs = softmax(logits)
        ours, ref = RecordingStrategy(), RecordingStrategy()
        codes = route_from_logits(logits, probs, m, k, ours)
        assert codes.dtype == np.int64 and codes.shape == (len(logits),)
        np.testing.assert_array_equal(codes, reference_route(logits, probs, m, k, ref))
        # The strategy sees exactly the anomalous rows, in order, once.
        assert len(ours.seen) == len(ref.seen) <= 1
        for got, want in zip(ours.seen, ref.seen):
            np.testing.assert_array_equal(got, want)

    def test_strategy_factory_not_called_without_anomalous_rows(self):
        m, k = 1, 2
        probs = np.array([[0.05, 0.5, 0.45], [0.1, 0.8, 0.1]])  # both normal
        codes = route_from_logits(np.log(probs), probs, m, k,
                                  lambda: pytest.fail("strategy was built"))
        np.testing.assert_array_equal(codes, [KIND_NORMAL, KIND_NORMAL])
        assert codes.dtype == np.int64

    def test_codes_for_each_kind(self):
        m, k = 1, 1
        probs = np.array([[0.1, 0.9], [0.9, 0.1], [0.8, 0.2]])
        logits = np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        codes = route_from_logits(logits, probs, m, k, RecordingStrategy())
        np.testing.assert_array_equal(codes, [KIND_NORMAL, KIND_TARGET, KIND_NONTARGET])

    def test_empty_batch(self):
        codes = route_from_logits(np.empty((0, 3)), np.empty((0, 3)), 1, 2,
                                  RecordingStrategy())
        assert codes.shape == (0,) and codes.dtype == np.int64
