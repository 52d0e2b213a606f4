"""Drift monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import DriftMonitor
from repro.serving.drift import _CONST_ATOL, _CONST_RTOL, _ks_from_sorted, ks_statistic


class TestKSStatistic:
    def test_identical_samples_zero(self):
        x = np.random.default_rng(0).standard_normal(300)
        assert ks_statistic(x, x) == pytest.approx(0.0)

    def test_disjoint_samples_one(self):
        assert ks_statistic(np.zeros(50), np.ones(50)) == pytest.approx(1.0)

    def test_matches_scipy(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(1)
        a = rng.standard_normal(200)
        b = rng.standard_normal(150) + 0.4
        assert ks_statistic(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.ones(3))


class TestDriftMonitor:
    def test_no_drift_on_same_distribution(self, rng):
        reference = rng.normal(0, 1, size=(800, 4))
        batch = rng.normal(0, 1, size=(400, 4))
        report = DriftMonitor(threshold=0.15).fit(reference).check(batch)
        assert not report.drifted

    def test_detects_shifted_feature(self, rng):
        reference = rng.normal(0, 1, size=(800, 4))
        batch = rng.normal(0, 1, size=(400, 4))
        batch[:, 2] += 2.0
        report = DriftMonitor(threshold=0.15).fit(reference).check(batch)
        assert report.drifted
        assert report.drifted_features == [2]
        assert "DRIFT" in report.summary()

    def test_reference_subsampled(self, rng):
        reference = rng.normal(0, 1, size=(10_000, 3))
        monitor = DriftMonitor(max_reference=500, random_state=0).fit(reference)
        assert len(monitor._reference) == 500

    def test_feature_count_mismatch_rejected(self, rng):
        monitor = DriftMonitor().fit(rng.normal(size=(100, 3)))
        with pytest.raises(ValueError):
            monitor.check(rng.normal(size=(10, 4)))

    def test_unfitted_rejected(self, rng):
        with pytest.raises(RuntimeError):
            DriftMonitor().check(rng.normal(size=(10, 3)))

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DriftMonitor(threshold=0.0)


class TestRobustness:
    """Degenerate references and hostile batches must not raise or
    manufacture spurious drift."""

    def test_constant_feature_no_spurious_drift(self, rng):
        reference = rng.normal(0, 1, size=(500, 3))
        reference[:, 1] = 7.0  # constant column (e.g. a dead sensor)
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 3))
        batch[:, 1] = 7.0
        report = monitor.check(batch)
        assert 1 not in report.drifted_features
        assert report.statistics[1] == pytest.approx(0.0)

    def test_constant_feature_tolerates_float_noise(self, rng):
        reference = rng.normal(0, 1, size=(500, 2))
        reference[:, 0] = 3.0
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 2))
        batch[:, 0] = 3.0 + 1e-13  # numerically identical, bit-different
        report = monitor.check(batch)
        assert report.statistics[0] == pytest.approx(0.0)

    def test_constant_feature_still_detects_a_real_move(self, rng):
        reference = rng.normal(0, 1, size=(500, 2))
        reference[:, 0] = 3.0
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 2))
        batch[:, 0] = 4.5  # the dead sensor came back different
        report = monitor.check(batch)
        assert report.statistics[0] == pytest.approx(1.0)
        assert 0 in report.drifted_features

    def test_nan_rows_do_not_raise_or_drift(self, rng):
        reference = rng.normal(0, 1, size=(500, 3))
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(200, 3))
        batch[:50, 0] = np.nan
        batch[10:20, 2] = np.inf
        report = monitor.check(batch)  # must not raise
        assert not report.drifted
        assert report.skipped_features == []

    def test_all_nan_feature_skipped_not_drifted(self, rng):
        reference = rng.normal(0, 1, size=(500, 3))
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        batch = rng.normal(0, 1, size=(100, 3))
        batch[:, 1] = np.nan
        report = monitor.check(batch)
        assert report.skipped_features == [1]
        assert report.statistics[1] == pytest.approx(0.0)
        assert 1 not in report.drifted_features

    def test_entirely_nonfinite_batch_skips_everything(self, rng):
        reference = rng.normal(0, 1, size=(300, 2))
        monitor = DriftMonitor(threshold=0.15).fit(reference)
        report = monitor.check(np.full((50, 2), np.nan))
        assert not report.drifted
        assert report.skipped_features == [0, 1]
        assert report.to_dict()["n_skipped"] == 2

    def test_report_to_dict_round_trip_fields(self, rng):
        reference = rng.normal(0, 1, size=(400, 3))
        batch = rng.normal(0, 1, size=(200, 3))
        batch[:, 0] += 2.0
        d = DriftMonitor(threshold=0.15).fit(reference).check(batch).to_dict()
        assert d["drifted"] is True
        assert d["drifted_features"] == [0]
        assert d["max_ks"] > 0.15 and d["threshold"] == pytest.approx(0.15)


# -- the batched kernel against the pooled-grid reference ---------------------
COLUMN_KINDS = ("normal", "shared", "integer", "onehot", "rounded", "constant")
NONFINITE = np.array([np.nan, np.inf, -np.inf])


def _columns(kind, n_ref, n_batch, shift, rng):
    """A reference and a batch column of one kind; ``shared`` reuses reference values."""
    if kind == "constant":
        ref = np.full(n_ref, 2.5)
        moved = rng.random(n_batch) < shift / 4.0
        return ref, np.where(moved, 2.5 + rng.integers(1, 3, n_batch), 2.5)
    if kind == "shared":
        ref = rng.standard_normal(n_ref)
        fresh = rng.standard_normal(n_batch) + shift
        return ref, np.where(rng.random(n_batch) < 0.5, rng.choice(ref, n_batch), fresh)
    draw = {
        "normal": lambda n: rng.standard_normal(n),
        "integer": lambda n: rng.integers(-2, 3, n).astype(float),
        "onehot": lambda n: (rng.random(n) < 0.3).astype(float),
        "rounded": lambda n: np.round(rng.standard_normal(n), 1),
    }[kind]
    return draw(n_ref), draw(n_batch) + np.round(shift)


def _spoil(column, rate, rng):
    """Replace a share of the entries with NaN, inf or -inf."""
    hit = rng.random(len(column)) < rate
    column[hit] = rng.choice(NONFINITE, int(hit.sum()))
    return column


def _expected(reference, batch, threshold):
    """Per-feature statistics from the pooled grid and the constant-mass rule."""
    stats = np.zeros(reference.shape[1])
    skipped = []
    for j in range(reference.shape[1]):
        ref = np.sort(reference[np.isfinite(reference[:, j]), j])
        values = np.sort(batch[np.isfinite(batch[:, j]), j])
        if len(ref) == 0 or len(values) == 0:
            skipped.append(j)
        elif ref[0] == ref[-1]:
            moved = ~np.isclose(values, ref[0], rtol=_CONST_RTOL, atol=_CONST_ATOL)
            stats[j] = float(moved.mean())
        else:
            stats[j] = _ks_from_sorted(ref, values)
    return stats, np.flatnonzero(stats > threshold).tolist(), skipped


@st.composite
def drift_cases(draw):
    n_ref = draw(st.integers(1, 40))
    n_batch = draw(st.sampled_from(["zero", "one", "below", "equal", "above", "any"]))
    n_batch = {
        "zero": 0, "one": 1, "below": max(n_ref - 1, 0), "equal": n_ref,
        "above": n_ref + draw(st.integers(1, 30)), "any": draw(st.integers(0, 80)),
    }[n_batch]
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6))
    shifts = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=len(kinds),
                           max_size=len(kinds)))
    rates = draw(st.lists(st.sampled_from([0.0, 0.0, 0.2, 1.0]), min_size=2 * len(kinds),
                          max_size=2 * len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reference = np.empty((n_ref, len(kinds)))
    batch = np.empty((n_batch, len(kinds)))
    for j, (kind, shift) in enumerate(zip(kinds, shifts)):
        ref, live = _columns(kind, n_ref, n_batch, shift, rng)
        reference[:, j] = _spoil(ref, rates[2 * j], rng)
        batch[:, j] = _spoil(live, rates[2 * j + 1], rng)
    return reference, batch


class TestBatchedKernel:
    """``check`` evaluates both ECDFs at the smaller sample's points only; every
    statistic must still equal the pooled-grid one bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=drift_cases(), threshold=st.sampled_from([0.1, 0.2, 0.5]))
    def test_check_matches_pooled_grid_bitwise(self, case, threshold):
        reference, batch = case
        report = DriftMonitor(threshold=threshold, max_reference=len(reference)) \
            .fit(reference).check(batch)
        stats, drifted, skipped = _expected(reference, batch, threshold)
        assert report.statistics.tobytes() == stats.tobytes()
        assert report.drifted_features == drifted
        assert report.skipped_features == skipped

    @settings(max_examples=200, deadline=None)
    @given(case=drift_cases())
    def test_ks_statistic_matches_pooled_grid_bitwise(self, case):
        reference, batch = case
        a = reference[np.isfinite(reference)]
        b = batch[np.isfinite(batch)]
        if len(a) == 0 or len(b) == 0:
            with pytest.raises(ValueError):
                ks_statistic(a, b)
            return
        want = _ks_from_sorted(np.sort(a), np.sort(b))
        assert np.float64(ks_statistic(a, b)).tobytes() == np.float64(want).tobytes()
        assert np.float64(ks_statistic(b, a)).tobytes() == np.float64(want).tobytes()
