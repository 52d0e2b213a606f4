"""Programmatic experiment suites (small-scale smoke + semantics)."""

import numpy as np
import pytest

from repro.experiments import (
    alpha_contamination_matrix,
    convergence_curves,
    eta_sweep,
    lambda_grid,
    sweep,
)

TINY = dict(scale=0.015, seed=0)


class TestSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return sweep(
            "kddcup99",
            ["iForest", "TargAD"],
            {"low": {"contamination": 0.03}, "high": {"contamination": 0.09}},
            seeds=(0,),
            scale=0.015,
        )

    def test_structure(self, result):
        assert result.settings == ["low", "high"]
        assert set(result.auprc["low"]) == {"iForest", "TargAD"}

    def test_series_ordering(self, result):
        series = result.series("TargAD")
        assert len(series) == 2
        assert series[0] == result.auprc["low"]["TargAD"]

    def test_winner(self, result):
        assert result.winner("low") in ("iForest", "TargAD")

    def test_runs_recorded(self, result):
        assert len(result.auprc_runs["low"]["TargAD"]) == 1

    def test_values_in_range(self, result):
        for setting in result.settings:
            for value in result.auprc[setting].values():
                assert 0.0 <= value <= 1.0


class TestConvergence:
    def test_curves_have_epoch_length(self):
        result = convergence_curves(
            "kddcup99", baselines=["DevNet"], scale=0.015,
            targad_kwargs=dict(ae_epochs=3, clf_epochs=5),
        )
        assert len(result.auprc_curves["TargAD"]) == 5
        assert len(result.loss_curve) == 5
        assert len(result.auprc_curves["DevNet"]) > 0

    def test_epochs_to_reach(self):
        result = convergence_curves(
            "kddcup99", baselines=[], scale=0.015,
            targad_kwargs=dict(ae_epochs=3, clf_epochs=5),
        )
        epoch = result.epochs_to_reach("TargAD", fraction=0.5)
        assert 0 <= epoch < 5

    def test_final_auprc(self):
        result = convergence_curves(
            "kddcup99", baselines=[], scale=0.015,
            targad_kwargs=dict(ae_epochs=3, clf_epochs=4, k=2),  # k overrides the dataset's
        )
        final = result.final_auprc()
        assert set(final) == {"TargAD"}


class TestSensitivity:
    def test_eta_sweep_keys(self):
        out = eta_sweep("kddcup99", etas=(0.0, 1.0), scale=0.015)
        assert set(out) == {0.0, 1.0}
        for p, r in out.values():
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0

    def test_lambda_grid_cartesian(self):
        out = lambda_grid("kddcup99", lambdas=(0.1, 1.0), scale=0.015)
        assert set(out) == {(0.1, 0.1), (0.1, 1.0), (1.0, 0.1), (1.0, 1.0)}

    def test_alpha_matrix_shape(self):
        p, r = alpha_contamination_matrix(
            "kddcup99", alphas=(0.05, 0.1), contaminations=(0.05,), scale=0.015
        )
        assert p.shape == (2, 1) and r.shape == (2, 1)
        assert np.all((p >= 0) & (p <= 1))
