"""k-means clustering (Lloyd's algorithm with k-means++ initialization).

Used by TargAD's candidate-selection stage to partition the unlabeled pool
into ``k`` behaviour groups, each of which trains its own autoencoder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _as_matrix(X) -> np.ndarray:
    """``X`` as float64, copied to C order if it is a non-contiguous view.

    Contiguous input reaches ``X @ centers.T`` in the layout that ``2·X``
    had when the distance formula doubled ``X`` before the product, so
    doubling after it gives bitwise the same distances.
    """
    X = np.asarray(X, dtype=np.float64)
    if not (X.flags.c_contiguous or X.flags.f_contiguous):
        X = np.ascontiguousarray(X)
    return X


class KMeans:
    """k-means clustering.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_init:
        Number of independent k-means++ restarts; the run with the lowest
        inertia wins.
    max_iter:
        Lloyd iteration cap per restart.
    tol:
        Relative center-shift tolerance for convergence.
    random_state:
        Seed for reproducible seeding and restarts.

    Attributes
    ----------
    cluster_centers_:
        ``(k, D)`` array of final centroids.
    labels_:
        Cluster index per training row.
    inertia_:
        Final within-cluster sum of squared distances.
    n_iter_:
        Iterations used by the best restart.
    """

    def __init__(
        self,
        n_clusters: int = 8,
        n_init: int = 4,
        max_iter: int = 100,
        tol: float = 1e-6,
        random_state: Optional[int] = None,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        self.n_iter_: Optional[int] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _row_sq_norms(X: np.ndarray) -> np.ndarray:
        """``||x||²`` per row, as an ``(n, 1)`` column."""
        # The column outlives the fit's calls; allocating it before the
        # squared temporary lets the heap return the temporary's pages.
        out = np.empty((len(X), 1))
        np.sum(X**2, axis=1, out=out[:, 0])
        return out

    @staticmethod
    def _pairwise_sq_dists(
        X: np.ndarray, centers: np.ndarray, x_sq: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Squared Euclidean distances, ``(n, k)``.

        ``x_sq`` is :meth:`_row_sq_norms` of ``X``, computed here when not
        given; a fit computes it once for all its calls.
        """
        # ||x - c||² = ||x||² - 2 x·c + ||c||²; clip tiny negatives from rounding.
        # Doubling x·c is exact, so this equals (2x)·c without copying 2·X.
        if x_sq is None:
            x_sq = KMeans._row_sq_norms(X)
        c_sq = (centers**2).sum(axis=1)[None, :]
        d = x_sq - 2.0 * (X @ centers.T) + c_sq
        return np.maximum(d, 0.0)

    def _init_plus_plus(
        self, X: np.ndarray, rng: np.random.Generator, x_sq: np.ndarray
    ) -> np.ndarray:
        """k-means++ seeding (Arthur & Vassilvitskii, 2007)."""
        n = len(X)
        centers = np.empty((self.n_clusters, X.shape[1]))
        first = rng.integers(n)
        centers[0] = X[first]
        closest = self._pairwise_sq_dists(X, centers[:1], x_sq).ravel()
        for i in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                # All points coincide with chosen centers; pick uniformly.
                centers[i] = X[rng.integers(n)]
                continue
            probs = closest / total
            idx = rng.choice(n, p=probs)
            centers[i] = X[idx]
            closest = np.minimum(
                closest, self._pairwise_sq_dists(X, centers[i : i + 1], x_sq).ravel()
            )
        return centers

    def _lloyd(self, X: np.ndarray, centers: np.ndarray, x_sq: np.ndarray):
        """Run Lloyd iterations from the given centers."""
        for iteration in range(1, self.max_iter + 1):
            dists = self._pairwise_sq_dists(X, centers, x_sq)
            labels = dists.argmin(axis=1)
            new_centers = centers.copy()
            for j in range(self.n_clusters):
                members = X[labels == j]
                if len(members) == 0:
                    # Re-seed an empty cluster at the point farthest from
                    # its assigned center, a standard fix for degeneracy.
                    farthest = dists[np.arange(len(X)), labels].argmax()
                    new_centers[j] = X[farthest]
                else:
                    new_centers[j] = members.mean(axis=0)
            shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
            centers = new_centers
            if shift <= self.tol:
                break
        dists = self._pairwise_sq_dists(X, centers, x_sq)
        labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(len(X)), labels].sum())
        return centers, labels, inertia, iteration

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "KMeans":
        """Cluster the rows of ``X``."""
        X = _as_matrix(X)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) < self.n_clusters:
            raise ValueError(f"n_samples={len(X)} < n_clusters={self.n_clusters}")
        rng = np.random.default_rng(self.random_state)
        x_sq = self._row_sq_norms(X)
        best = None
        for _ in range(self.n_init):
            centers = self._init_plus_plus(X, rng, x_sq)
            centers, labels, inertia, n_iter = self._lloyd(X, centers, x_sq)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia, n_iter)
        self.cluster_centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign rows of ``X`` to the nearest learned centroid."""
        if self.cluster_centers_ is None:
            raise RuntimeError("KMeans is not fitted; call fit() first")
        X = _as_matrix(X)
        return self._pairwise_sq_dists(X, self.cluster_centers_).argmin(axis=1)

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        """Fit and return training labels."""
        return self.fit(X).labels_

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Distances (not squared) from each row to each centroid."""
        if self.cluster_centers_ is None:
            raise RuntimeError("KMeans is not fitted; call fit() first")
        X = _as_matrix(X)
        return np.sqrt(self._pairwise_sq_dists(X, self.cluster_centers_))
