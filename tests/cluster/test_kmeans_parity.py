"""k-means against its former per-call distance formula.

A fit now computes ``||x||²`` once and forms ``2·(X·Cᵀ)`` instead of
``(2·X)·Cᵀ``. Doubling is exact in binary floating point, so centers,
labels, inertia and iteration counts must be bitwise those of the former
formula, kept here as the reference, on every input layout.
"""

import numpy as np
import pytest

import repro.cluster.kmeans as kmeans_module
from repro.cluster import KMeans
from repro.cluster.elbow import inertia_curve


def per_call_sq_dists(X, centers, x_sq=None):
    """The former formula: row norms and ``2·X`` recomputed on every call."""
    x_sq = (X**2).sum(axis=1)[:, None]
    c_sq = (centers**2).sum(axis=1)[None, :]
    d = x_sq - 2.0 * X @ centers.T + c_sq
    return np.maximum(d, 0.0)


@pytest.fixture
def reference(monkeypatch):
    """Run a callable once as is and once through the former formula."""

    def run(fn):
        current = fn()
        with monkeypatch.context() as patch:
            patch.setattr(KMeans, "_pairwise_sq_dists", staticmethod(per_call_sq_dists))
            # The former code converted with asarray only.
            patch.setattr(kmeans_module, "_as_matrix", lambda X: np.asarray(X, dtype=np.float64))
            former = fn()
        return current, former

    return run


def _pool(layout):
    rng = np.random.default_rng(7)
    centers = rng.normal(0.0, 4.0, size=(5, 24))
    X = np.vstack([c + rng.normal(0.0, 1.0, size=(160, 24)) for c in centers])
    X = X[rng.permutation(len(X))]
    if layout == "fortran":
        return np.asfortranarray(X)
    if layout == "row_view":
        return X[::2]
    if layout == "row_sample":
        return X[np.sort(rng.choice(len(X), size=500, replace=False))]
    if layout == "strided_view":
        return X[::2, ::3]
    return X


LAYOUTS = ["c", "fortran", "row_view", "row_sample", "strided_view"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", [1, 3, 6])
def test_fit_predict_transform_bitwise(reference, layout, k):
    X = _pool(layout)
    probe = np.asfortranarray(X[:50]) if layout == "c" else np.ascontiguousarray(X[:50])

    def fit():
        km = KMeans(n_clusters=k, n_init=2, random_state=3).fit(X)
        return km, km.predict(probe), km.transform(X)

    (new, new_pred, new_dist), (old, old_pred, old_dist) = reference(fit)
    assert np.array_equal(new.cluster_centers_, old.cluster_centers_)
    assert np.array_equal(new.labels_, old.labels_)
    assert new.inertia_ == old.inertia_
    assert new.n_iter_ == old.n_iter_
    assert np.array_equal(new_pred, old_pred)
    assert np.array_equal(new_dist, old_dist)


@pytest.mark.parametrize("layout", ["c", "fortran", "row_view"])
def test_inertia_curve_bitwise(reference, layout):
    X = _pool(layout)
    # sample_cap below the pool size exercises the subsampled path.
    new, old = reference(lambda: inertia_curve(X, range(1, 7), random_state=5, sample_cap=300))
    assert np.array_equal(new, old)
