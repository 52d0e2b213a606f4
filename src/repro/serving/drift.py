"""Covariate-drift monitoring for deployed detectors.

A detector trained on last month's traffic silently degrades when the
feature distribution moves. :class:`DriftMonitor` keeps a reference sample
of the training features and compares every incoming batch against it with
the two-sample Kolmogorov-Smirnov statistic per feature; a drift report
lists features whose statistic exceeds the threshold.

Served traffic is messier than a validation split, so the monitor is
hardened for the pipeline's call order (the drift check may see rows that
sanitization would quarantine, and real feature matrices contain one-hot
or padding columns that never vary):

- **Non-finite values** (NaN/inf from broken upstream joins) are excluded
  per feature before the KS statistic; a feature whose batch column has
  no finite values contributes statistic 0.0 (no evidence) instead of
  raising or polluting the sup-norm.
- **Constant reference features** get an exact-mass comparison instead of
  the degenerate two-sample KS: the statistic is the fraction of batch
  values that differ from the reference constant (within float
  tolerance), so float noise on a frozen column cannot manufacture a
  spurious KS = 1.0 drift event, while a genuinely moved constant still
  reports full drift.

The reference columns are sorted once at :meth:`~DriftMonitor.fit`, and a
check sorts the whole batch once (one ``np.sort`` over the transposed
batch). It then evaluates both ECDFs only at the points of the smaller
sample: the batch's points while the batch has at most as many rows as
the reference, the reference's points otherwise. At each point it takes
the right and the left limit. Between two neighbouring points of the
smaller sample that sample's ECDF is flat and the other one only rises,
so the supremum lies at one of those limits. Each value there is the same
integer count over the same sample size as on the pooled grid of
:func:`_ks_from_sorted`, so the statistic is bitwise the same. Only one
``searchsorted`` call per feature runs in a Python loop; the divide,
subtract, abs and max run once over a features × points array. A column
without repeated values counts ``i`` of its own values below its i-th
point and ``i + 1`` up to it, so one shared ``arange`` serves every such
column, and only tied columns (one-hot blocks, integer codes) keep their
own counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

#: Tolerances for "the batch value equals the constant reference value";
#: tight enough that any real shift registers, loose enough that float32
#: round-tripping or serialization noise does not.
_CONST_RTOL = 1e-9
_CONST_ATOL = 1e-12


def _finite(values: np.ndarray) -> np.ndarray:
    """The finite entries of a 1-D array (may be empty)."""
    return values[np.isfinite(values)]


def _ks_from_sorted(sorted_a: np.ndarray, sorted_b: np.ndarray) -> float:
    """Two-sample KS statistic given two *sorted, finite* samples."""
    grid = np.concatenate([sorted_a, sorted_b])
    cdf_a = np.searchsorted(sorted_a, grid, side="right") / len(sorted_a)
    cdf_b = np.searchsorted(sorted_b, grid, side="right") / len(sorted_b)
    return float(np.abs(cdf_a - cdf_b).max())


def _tie_counts(sorted_rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's count of its own values ``<=`` and ``<`` each of its entries.

    ``sorted_rows`` is ``(k, s)`` with every row sorted; the entries of a
    run of equal values share the counts of the run.
    """
    k, s = sorted_rows.shape
    index = np.arange(s)
    starts = np.ones((k, s), dtype=bool)
    np.not_equal(sorted_rows[:, 1:], sorted_rows[:, :-1], out=starts[:, 1:])
    ends = np.ones((k, s), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    left = np.maximum.accumulate(np.where(starts, index, 0), axis=1)
    right = np.minimum.accumulate(np.where(ends, index + 1, s)[:, ::-1], axis=1)[:, ::-1]
    return right, left


class _SortedSamples:
    """One sorted finite sample per row, with the counts of rows that repeat.

    Row ``j`` holds ``sizes[j]`` sorted finite values, padded to the full
    width with copies of the last one; a padded entry repeats the limits
    of the last value. A row without repeated values counts ``i`` of its
    values below its i-th entry and ``i + 1`` up to it, which the shared
    ``ranks`` give; only rows with repeats (padding included) keep their
    own counts, in ``right``/``left`` at position ``slot[j]``.
    """

    def __init__(self, values: np.ndarray, sizes: np.ndarray):
        self.values = values
        self.sizes = sizes
        self.ranks = np.arange(values.shape[1] + 1)
        self.tied = (values[:, 1:] == values[:, :-1]).any(axis=1)
        self.slot = np.cumsum(self.tied) - 1
        right, left = _tie_counts(values[self.tied])
        self.right = np.minimum(right, sizes[self.tied, None])
        self.left = left


def _sup_gap(right, left, size, other_right, other_left, other_size) -> np.ndarray:
    """Per row, the largest ECDF gap over both limits at every point."""
    gap = np.abs(right / size - other_right / other_size)
    np.maximum(gap, np.abs(left / size - other_left / other_size), out=gap)
    return gap.max(axis=1)


def _ks_rows(small: _SortedSamples, large: _SortedSamples, rows: np.ndarray) -> np.ndarray:
    """KS statistics of row pairs ``rows``, evaluated at ``small``'s points.

    Both limits at each point count the same integers over the same sample
    sizes as :func:`_ks_from_sorted`. ``large`` is counted with one
    ``searchsorted`` per row; below a point it counts the same less its
    copies of the point, found by comparing its entry just under the count.
    """
    points = small.values[rows]
    found = np.empty(points.shape, dtype=np.intp)
    for i, j in enumerate(rows.tolist()):
        found[i] = large.values[j].searchsorted(points[i], side="right")
    other_size = large.sizes[rows, None]
    np.minimum(found, other_size, out=found)
    below = np.maximum(found - 1, 0)
    offsets = (rows * large.values.shape[1])[:, None]
    holds = (found > 0) & (np.take(large.values, below + offsets) == points)
    # Below a point it holds, a row without repeats counts one value fewer;
    # a tied row counts up to the start of the point's run.
    other_left = np.where(holds, below, found)
    tied = np.flatnonzero(large.tied[rows])
    if len(tied):
        run_start = np.take_along_axis(large.left[large.slot[rows[tied]]], below[tied], axis=1)
        other_left[tied] = np.where(holds[tied], run_start, found[tied])
    size = small.sizes[rows, None]
    stats = _sup_gap(small.ranks[1:], small.ranks[:-1], size, found, other_left, other_size)
    own = np.flatnonzero(small.tied[rows])
    if len(own):
        slots = small.slot[rows[own]]
        stats[own] = _sup_gap(small.right[slots], small.left[slots], size[own],
                              found[own], other_left[own], other_size[own])
    return stats


def _ks_pair(sorted_a: np.ndarray, sorted_b: np.ndarray) -> float:
    """KS statistic of two sorted, finite, non-empty samples.

    Bitwise equal to :func:`_ks_from_sorted`, evaluated at the smaller
    sample's points only.
    """
    if len(sorted_a) > len(sorted_b):
        sorted_a, sorted_b = sorted_b, sorted_a
    small = _SortedSamples(sorted_a[None, :], np.array([len(sorted_a)]))
    large = _SortedSamples(sorted_b[None, :], np.array([len(sorted_b)]))
    return float(_ks_rows(small, large, np.zeros(1, dtype=np.intp))[0])


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup-norm of ECDF difference).

    Non-finite values carry no distributional evidence and are excluded
    before the comparison; a sample with no finite values raises
    ``ValueError`` (same contract as an empty sample).
    """
    sample_a = _finite(np.asarray(sample_a, dtype=np.float64).ravel())
    sample_b = _finite(np.asarray(sample_b, dtype=np.float64).ravel())
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise ValueError("both samples must contain at least one finite value")
    return _ks_pair(np.sort(sample_a), np.sort(sample_b))


@dataclass
class DriftReport:
    """Outcome of one drift check."""

    statistics: np.ndarray
    threshold: float
    drifted_features: List[int] = field(default_factory=list)
    #: Features whose batch column had no finite values — unchecked, not
    #: drifted (their ``statistics`` entry is 0.0).
    skipped_features: List[int] = field(default_factory=list)

    @property
    def drifted(self) -> bool:
        return len(self.drifted_features) > 0

    @property
    def max_statistic(self) -> float:
        return float(self.statistics.max())

    def to_dict(self) -> dict:
        """Plain-JSON view for structured events and reports."""
        return {
            "drifted": self.drifted,
            "max_ks": self.max_statistic,
            "threshold": float(self.threshold),
            "n_drifted": len(self.drifted_features),
            "drifted_features": [int(j) for j in self.drifted_features[:16]],
            "n_skipped": len(self.skipped_features),
        }

    def summary(self) -> str:
        if not self.drifted:
            return f"no drift (max KS {self.max_statistic:.3f} <= {self.threshold})"
        return (f"DRIFT on {len(self.drifted_features)} feature(s) "
                f"{self.drifted_features[:8]} (max KS {self.max_statistic:.3f})")


class DriftMonitor:
    """Per-feature KS drift detector against a training reference.

    Parameters
    ----------
    threshold:
        KS statistic above which a feature counts as drifted. The
        two-sample 95% critical value of one feature is about
        ``1.36·sqrt(1/na+1/nb)``. Against a 2,000-row reference that is
        about 0.48 for an 8-row batch, 0.24 for 32 rows and 0.12 for 128
        rows, so the default 0.2 flags stable traffic in small batches,
        and taking the maximum over every feature raises the false-alarm
        rate further. The default suits batches of a few hundred rows and
        more.
    max_reference:
        Reference subsample size kept per feature.
    random_state:
        Seed of the reference subsample, drawn when the reference has more
        than ``max_reference`` rows.
    """

    def __init__(self, threshold: float = 0.2, max_reference: int = 2000,
                 random_state: Optional[int] = None):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.max_reference = max_reference
        self.random_state = random_state
        self._reference: Optional[np.ndarray] = None

    def fit(self, X_reference: np.ndarray) -> "DriftMonitor":
        """Store (a subsample of) the training features."""
        X_reference = np.asarray(X_reference, dtype=np.float64)
        if X_reference.ndim != 2 or len(X_reference) == 0:
            raise ValueError("X_reference must be a non-empty 2-D array")
        if len(X_reference) > self.max_reference:
            rng = np.random.default_rng(self.random_state)
            idx = rng.choice(len(X_reference), size=self.max_reference, replace=False)
            X_reference = X_reference[idx]
        n_rows, n_features = X_reference.shape
        points = np.zeros((n_features, n_rows))
        sizes = np.zeros(n_features, dtype=np.intp)
        const_values: List[Optional[float]] = []
        for j in range(n_features):
            col = np.sort(_finite(X_reference[:, j]))
            sizes[j] = len(col)
            const = None
            if len(col):
                points[j, :len(col)] = col
                points[j, len(col):] = col[-1]
                if col[0] == col[-1]:
                    const = float(col[0])
            const_values.append(const)
        self._reference = X_reference
        self._sample = _SortedSamples(points, sizes)
        self._const_values = const_values
        #: Features the batched kernel takes; the rest (constant or empty
        #: reference) go through :meth:`_feature_statistic`.
        self._batched = (sizes > 0) & np.array([c is None for c in const_values])
        return self

    def _feature_statistic(self, j: int, column: np.ndarray) -> Optional[float]:
        """KS-style statistic for one feature's sorted batch column.

        ``None`` means no evidence.
        """
        reference = self._sample.values[j, :self._sample.sizes[j]]
        values = _finite(column)
        if len(reference) == 0 or len(values) == 0:
            return None
        const = self._const_values[j]
        if const is not None:
            # Degenerate reference: the two-sample KS collapses to 0-or-1
            # on float noise. Compare mass at the constant instead — the
            # fraction of batch values that actually moved.
            moved = ~np.isclose(values, const, rtol=_CONST_RTOL, atol=_CONST_ATOL)
            return float(moved.mean())
        return _ks_pair(reference, values)

    def check(self, X_batch: np.ndarray) -> DriftReport:
        """Compare a live batch against the reference.

        Never raises on bad *values*: non-finite entries are excluded
        feature-wise, and features with no checkable values are reported
        as skipped with statistic 0.0.
        """
        if self._reference is None:
            raise RuntimeError("monitor is not fitted; call fit() first")
        X_batch = np.asarray(X_batch, dtype=np.float64)
        if X_batch.ndim != 2:
            raise ValueError(f"batch must be 2-D, got shape {X_batch.shape}")
        if X_batch.shape[1] != self._reference.shape[1]:
            raise ValueError(
                f"batch has {X_batch.shape[1]} features but the drift "
                f"reference has {self._reference.shape[1]}"
            )
        n_rows, n_features = X_batch.shape
        stats = np.zeros(n_features, dtype=np.float64)
        if n_rows == 0:
            return DriftReport(statistics=stats, threshold=self.threshold,
                               skipped_features=list(range(n_features)))
        # One C-ordered row per feature, so each row is contiguous. NaN
        # sorts last and -inf first: a sorted row is finite iff its ends are.
        batch = X_batch.T.copy()
        batch.sort(axis=1)
        batched = self._batched & np.isfinite(batch[:, 0]) & np.isfinite(batch[:, -1])
        skipped: List[int] = []
        for j in np.flatnonzero(~batched).tolist():
            statistic = self._feature_statistic(j, batch[j])
            if statistic is None:
                skipped.append(j)
            else:
                stats[j] = statistic
        rows = np.flatnonzero(batched)
        live = _SortedSamples(batch, np.full(n_features, n_rows))
        if n_rows <= self._sample.values.shape[1]:
            stats[rows] = _ks_rows(live, self._sample, rows)
        else:
            stats[rows] = _ks_rows(self._sample, live, rows)
        drifted = np.flatnonzero(stats > self.threshold).tolist()
        return DriftReport(statistics=stats, threshold=self.threshold,
                           drifted_features=drifted, skipped_features=skipped)
