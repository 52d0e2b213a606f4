"""Drift monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import DriftMonitor
from repro.serving.drift import (
    _CONST_ATOL,
    _CONST_RTOL,
    FALSE_ALARM_RATE,
    _ks_from_sorted,
    _min_rows,
    ks_statistic,
)


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
        assert monitor._sample.values.shape == (3, 500)
        assert monitor._sample.sizes.tolist() == [500, 500, 500]

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

    @pytest.mark.parametrize("max_reference", [0, -5])
    def test_max_reference_below_one_rejected(self, max_reference):
        with pytest.raises(ValueError, match="max_reference"):
            DriftMonitor(max_reference=max_reference)


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
        assert d["n_rows"] == 200


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


# -- the window of small batches ------------------------------------------------
def _null_tail(threshold, n, m, d):
    """Bonferroni-corrected asymptotic KS tail of ``threshold`` at n batch rows."""
    from scipy.stats import kstwobign

    return d * kstwobign.sf(threshold * np.sqrt(n * m / (n + m)))


class TestMinRows:
    def test_threshold_clears_the_ks_null_first_at_min_rows(self):
        sized = capped = 0
        for threshold in (0.05, 0.1, 0.2, 0.3, 0.5, 1.0):
            for m in (1, 10, 50, 200, 2000, 5000):
                for d in (1, 15, 182, 1000):
                    n = _min_rows(threshold, m, d)
                    assert 1 <= n <= m
                    if _null_tail(threshold, n, m, d) <= FALSE_ALARM_RATE:
                        sized += 1
                        assert _null_tail(threshold, n - 1, m, d) > FALSE_ALARM_RATE
                    else:
                        # Not even the whole reference size clears the null.
                        capped += 1
                        assert n == m
        assert sized and capped

    def test_deployment_sizes(self, rng):
        # The SQB deployment: threshold 0.2, 2,000 reference rows, 182 features.
        assert _min_rows(0.2, 2000, 182) == 118
        monitor = DriftMonitor(random_state=0).fit(rng.normal(size=(3000, 182)))
        assert monitor.min_rows == 118
        # Without enough rows for a valid test, the window is the reference size.
        assert DriftMonitor(threshold=0.05).fit(rng.normal(size=(50, 3))).min_rows == 50

    def test_windows_from_the_reference_pool_rarely_flag(self, rng):
        from scipy.stats import binom

        pool = rng.normal(size=(20_000, 40))
        monitor = DriftMonitor(random_state=0).fit(pool)
        n_windows = 400
        flagged = sum(
            monitor.check(pool[rng.choice(len(pool), monitor.min_rows, replace=False)]).drifted
            for _ in range(n_windows)
        )
        assert flagged <= binom.ppf(0.999, n_windows, FALSE_ALARM_RATE)


@st.composite
def observed_streams(draw):
    """A monitor's reference, threshold and a stream of batch sizes around min_rows.

    ``min_rows`` is 5 to 54 here, so the sizes reach past ``sample_rows``.
    """
    n_ref = draw(st.sampled_from([20, 60]))
    threshold = draw(st.sampled_from([0.3, 0.5, 0.8]))
    sizes = draw(st.lists(st.integers(0, 3 * n_ref), min_size=1, max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_ref, threshold, sizes, seed


def assert_reports_equal(got, want):
    assert got.statistics.tobytes() == want.statistics.tobytes()
    assert got.drifted_features == want.drifted_features
    assert got.skipped_features == want.skipped_features
    assert got.n_rows == want.n_rows


class TestObserve:
    """``observe`` tests large batches on a seeded sample, mid-sized ones alone
    and small ones as one window."""

    @settings(max_examples=150, deadline=None)
    @given(case=observed_streams())
    def test_reports_equal_check_of_the_batch_or_the_window(self, case):
        n_ref, threshold, sizes, seed = case
        rng = np.random.default_rng(seed)
        reference = rng.normal(size=(n_ref, 4))
        reference[:, 3] = rng.random(n_ref) < 0.3  # a tied (one-hot) column
        monitor = DriftMonitor(threshold=threshold, random_state=seed).fit(reference)
        assert monitor.sample_rows == 2 * monitor.min_rows
        # Seeded as the generator ``observe`` draws its row samples from.
        replay = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        pending = []
        for size in sizes:
            batch = rng.normal(size=(size, 4)) + rng.choice([0.0, 1.5])
            batch[:, 3] = rng.random(size) < 0.3
            batch[rng.random(batch.shape) < 0.05] = np.nan
            got = monitor.observe(batch)
            if size > monitor.sample_rows:
                rows = replay.choice(size, monitor.sample_rows, replace=False, shuffle=False)
                assert_reports_equal(got, monitor.check(batch[np.sort(rows)]))
                continue
            if size >= monitor.min_rows:
                assert_reports_equal(got, monitor.check(batch))
                continue
            pending.append(batch)
            if sum(len(b) for b in pending) < monitor.min_rows:
                assert got is None
                continue
            assert_reports_equal(got, monitor.check(np.concatenate(pending)))
            pending = []

    @settings(max_examples=100, deadline=None)
    @given(n_ref=st.sampled_from([20, 60]), threshold=st.sampled_from([0.3, 0.5, 0.8]),
           total=st.integers(0, 400), cuts=st.lists(st.integers(0, 400), max_size=15),
           seed=st.integers(0, 2**32 - 1))
    def test_every_report_tests_min_rows_to_twice_min_rows(self, n_ref, threshold, total,
                                                           cuts, seed):
        rng = np.random.default_rng(seed)
        monitor = DriftMonitor(threshold=threshold, random_state=seed) \
            .fit(rng.normal(size=(n_ref, 3)))
        stream = rng.normal(size=(total, 3))
        # Repeated cuts make empty batches.
        bounds = sorted([0, total, *(c for c in cuts if c <= total)])
        for start, end in zip(bounds, bounds[1:]):
            report = monitor.observe(stream[start:end])
            if report is not None:
                assert monitor.min_rows <= report.n_rows <= 2 * monitor.min_rows

    def test_one_random_state_gives_one_report_sequence(self, rng):
        # More rows than max_reference, so the reference subsample is drawn too.
        reference = rng.normal(size=(3000, 5))
        stream = [rng.normal(size=(n, 5)) + shift
                  for n, shift in [(4096, 0.0), (30, 0.0), (100, 0.3), (4096, 0.2),
                                   (50, 0.0), (600, 0.0), (4096, 0.0)]]
        first, second = (DriftMonitor(threshold=0.2, random_state=7).fit(reference)
                         for _ in range(2))
        assert (first.min_rows, first.sample_rows) == (69, 138)
        reports = [first.observe(batch) for batch in stream]
        assert [r.n_rows for r in reports if r is not None] == [138, 100, 138, 80, 138, 138]
        for batch, want in zip(stream, reports):
            got = second.observe(batch)
            assert (got is None) == (want is None)
            if want is not None:
                assert_reports_equal(got, want)
        # A refit restarts the sample stream.
        assert_reports_equal(first.fit(reference).observe(stream[0]), reports[0])
        # Another seed draws other samples of the same batches.
        whole = reference[:2000]
        seven, eight = (DriftMonitor(threshold=0.2, random_state=seed).fit(whole)
                        for seed in (7, 8))
        assert seven.observe(stream[0]).statistics.tobytes() != \
            eight.observe(stream[0]).statistics.tobytes()

    def test_small_batches_wait_for_the_window(self, rng):
        monitor = DriftMonitor(threshold=0.3).fit(rng.normal(size=(500, 3)))
        assert monitor.min_rows == 29
        small = [rng.normal(size=(8, 3)) for _ in range(4)]
        assert [monitor.observe(b) is None for b in small] == [True, True, True, False]
        assert monitor.observe(small[0]) is None  # the window started over

    def test_large_batch_leaves_the_window_alone(self, rng):
        monitor = DriftMonitor(threshold=0.3).fit(rng.normal(size=(500, 3)))
        small = [rng.normal(size=(8, 3)) for _ in range(4)]
        large = rng.normal(size=(40, 3))
        for b in small[:3]:
            assert monitor.observe(b) is None
        assert monitor.observe(large).n_rows == 40
        assert_reports_equal(monitor.observe(small[3]), monitor.check(np.concatenate(small)))

    def test_refit_empties_the_window(self, rng):
        reference = rng.normal(size=(500, 3))
        monitor = DriftMonitor(threshold=0.3).fit(reference)
        assert monitor.observe(rng.normal(size=(20, 3))) is None
        monitor.fit(reference)
        assert monitor.observe(rng.normal(size=(20, 3))) is None

    @pytest.mark.parametrize("batch", [np.zeros(3), np.zeros((2, 4)), np.zeros((2, 2, 3))])
    def test_bad_shapes_raise_even_when_the_batch_would_only_wait(self, rng, batch):
        monitor = DriftMonitor(threshold=0.3).fit(rng.normal(size=(500, 3)))
        with pytest.raises(ValueError):
            monitor.check(batch)
        with pytest.raises(ValueError):
            monitor.observe(batch)

    def test_unfitted_rejected(self, rng):
        with pytest.raises(RuntimeError):
            DriftMonitor().observe(rng.normal(size=(2, 3)))


class TestSampledBatches:
    """A batch above ``sample_rows`` is tested on a sample of that many rows."""

    def test_samples_of_large_batches_from_the_reference_pool_rarely_flag(self, rng):
        from scipy.stats import binom

        pool = rng.normal(size=(20_000, 40))
        monitor = DriftMonitor(random_state=0).fit(pool)
        n_batches = 400
        flagged = 0
        for _ in range(n_batches):
            report = monitor.observe(pool[rng.choice(len(pool), 4096, replace=False)])
            assert report.n_rows == monitor.sample_rows == 194
            flagged += report.drifted
        assert flagged <= binom.ppf(0.999, n_batches, FALSE_ALARM_RATE)

    def test_a_shifted_share_clearly_above_the_threshold_flags_nearly_every_sample(self, rng):
        pool = rng.normal(size=(20_000, 40))
        monitor = DriftMonitor(random_state=0).fit(pool)
        batch = pool[rng.choice(len(pool), 4096, replace=False)]
        batch[rng.random(4096) < 0.3, 3] += 5.0
        assert monitor.check(batch).statistics[3] > 1.4 * monitor.threshold
        reports = [monitor.observe(batch) for _ in range(100)]
        assert sum(r.drifted_features == [3] for r in reports) >= 95
