"""Autoencoder and SADAutoencoder (Eq. 1) behaviour."""

import numpy as np
import pytest

from repro.nn import Autoencoder, SADAutoencoder


def correlated_data(rng, n=400, d=10):
    """Low-rank data an AE can compress well."""
    latent = rng.standard_normal((n, 2))
    mix = rng.standard_normal((2, d))
    return 0.5 + 0.2 * (latent @ mix) + rng.normal(0, 0.02, (n, d))


class TestAutoencoder:
    def test_reconstruction_improves_with_training(self, rng):
        X = correlated_data(rng)
        ae = Autoencoder(hidden_sizes=(8, 2), epochs=40, lr=3e-3, random_state=0)
        ae.fit(X)
        assert ae.loss_history[-1] < ae.loss_history[0] / 2

    def test_outliers_have_higher_error(self, rng):
        X = correlated_data(rng)
        ae = Autoencoder(hidden_sizes=(8, 2), epochs=40, lr=3e-3, random_state=0)
        ae.fit(X)
        outliers = X[:20] + rng.choice([-1, 1], size=(20, X.shape[1])) * 0.8
        assert ae.reconstruction_error(outliers).mean() > 3 * ae.reconstruction_error(X).mean()

    def test_encode_dimension(self, rng):
        X = correlated_data(rng)
        ae = Autoencoder(hidden_sizes=(8, 3), epochs=2, random_state=0).fit(X)
        assert ae.encode(X).shape == (len(X), 3)

    def test_reconstruct_shape(self, rng):
        X = correlated_data(rng)
        ae = Autoencoder(hidden_sizes=(8, 3), epochs=2, random_state=0).fit(X)
        assert ae.reconstruct(X).shape == X.shape

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Autoencoder().encode(np.zeros((2, 4)))

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError):
            Autoencoder(hidden_sizes=())


class TestReadPathPlanCache:
    def test_repeated_reconstruction_error_adds_no_cache_entries(self, rng):
        import gc

        from repro.nn.inference import _PLAN_CACHE, plan_cache_stats

        X = correlated_data(rng, n=64)
        ae = Autoencoder(hidden_sizes=(8, 3), epochs=1, random_state=0).fit(X)
        ae.reconstruction_error(X)
        gc.collect()
        entries = len(_PLAN_CACHE.modules)
        hits = plan_cache_stats()["hits"]
        for _ in range(5):
            ae.reconstruction_error(X)
        gc.collect()
        assert len(_PLAN_CACHE.modules) == entries
        assert plan_cache_stats()["hits"] - hits == 5

    def test_refit_replaces_the_chain(self, rng):
        X = correlated_data(rng, n=64)
        ae = Autoencoder(hidden_sizes=(8, 3), epochs=1, random_state=0).fit(X)
        first = ae.reconstruct(X)
        ae.epochs = 3
        ae.fit(X)
        assert not np.array_equal(ae.reconstruct(X), first)


class TestSADAutoencoder:
    def test_labeled_anomalies_reconstruct_worse_than_plain_ae(self, rng):
        X = correlated_data(rng)
        anomalies = correlated_data(rng, n=20) + 0.6

        plain = SADAutoencoder(eta=0.0, hidden_sizes=(8, 2), epochs=40, lr=3e-3, random_state=0)
        plain.fit(X, anomalies)
        sad = SADAutoencoder(eta=5.0, hidden_sizes=(8, 2), epochs=40, lr=3e-3, random_state=0)
        sad.fit(X, anomalies)

        # Compare the *relative* error (anomaly error / normal error): the
        # SAD term should widen the gap.
        ratio_plain = plain.reconstruction_error(anomalies).mean() / plain.reconstruction_error(X).mean()
        ratio_sad = sad.reconstruction_error(anomalies).mean() / sad.reconstruction_error(X).mean()
        assert ratio_sad > ratio_plain

    def test_eta_zero_equals_no_labels(self, rng):
        X = correlated_data(rng)
        anomalies = correlated_data(rng, n=10) + 1.0
        a = SADAutoencoder(eta=0.0, hidden_sizes=(8, 2), epochs=3, random_state=0)
        a.fit(X, anomalies)
        b = SADAutoencoder(eta=1.0, hidden_sizes=(8, 2), epochs=3, random_state=0)
        b.fit(X, None)
        np.testing.assert_allclose(a.reconstruction_error(X), b.reconstruction_error(X))

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            SADAutoencoder(eta=-1.0)

    def test_deterministic_given_seed(self, rng):
        X = correlated_data(rng)
        anomalies = X[:5] + 1.0
        e1 = SADAutoencoder(epochs=3, random_state=4).fit(X, anomalies).reconstruction_error(X)
        e2 = SADAutoencoder(epochs=3, random_state=4).fit(X, anomalies).reconstruction_error(X)
        np.testing.assert_array_equal(e1, e2)
