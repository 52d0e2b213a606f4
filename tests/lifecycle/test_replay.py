"""Drift replay: ``recovered`` is a counterfactual that can fail."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import TargAD
from repro.data.schema import KIND_TARGET
from repro.lifecycle import DriftReplayResult, drift_replay, make_split_oracle, shift_regime
from repro.lifecycle.replay import RECOVERY_MARGIN
from repro.metrics import auprc
from tests.lifecycle.test_manager import make_manager


class TestRecoveredMargin:
    @pytest.mark.parametrize("final, stale, swaps, expected", [
        (0.51, 0.50, 1, True),      # a gain of exactly the margin recovers
        (0.5099, 0.50, 1, False),   # just under it does not
        (0.50, 0.50, 1, False),     # a swap that changed nothing
        (0.90, 0.50, 0, False),     # a large gain without a swap
        (0.9292, 0.9511, 1, False),  # the live model fell behind the stale one
    ])
    def test_boundary(self, final, stale, swaps, expected):
        result = DriftReplayResult(auprc_final=final, auprc_stale_final=stale, swaps=swaps)
        assert RECOVERY_MARGIN == 0.01
        assert result.recovered is expected
        d = result.to_dict()
        assert d["recovered"] is expected
        assert (d["auprc_final"], d["auprc_stale_final"]) == (round(final, 4), round(stale, 4))


class TestCounterfactual:
    def test_refit_that_keeps_the_donor_weights_does_not_recover(
        self, split, model, monkeypatch
    ):
        refit = TargAD.incremental_fit

        def keep_donor_weights(self, *args, donor, **kwargs):
            refit(self, *args, donor=donor, **kwargs)
            self.network_.load_state_dict(donor.network_.state_dict())
            return self

        monkeypatch.setattr(TargAD, "incremental_fit", keep_donor_weights)
        X_shifted = shift_regime(split.X_test, shift=6.0, seed=0)
        half = len(X_shifted) // 2
        y = np.where(split.test_kind == KIND_TARGET, 1, 0)
        manager = make_manager(split, model,
                               oracle=make_split_oracle(X_shifted[:half], y[:half]))
        result = drift_replay(manager, split.X_val, X_shifted[:half],
                              X_shifted[half:], y[half:], batch_rows=60)
        assert result.swaps > 0
        assert result.auprc_final == result.auprc_stale_final
        assert result.recovered is False


class TestDetection:
    def test_inline_swap_on_the_confirming_batch_reports_the_model_that_served_it(
        self, split, model
    ):
        X_shifted = shift_regime(split.X_test, shift=6.0, seed=0)
        half = len(X_shifted) // 2
        y = np.where(split.test_kind == KIND_TARGET, 1, 0)
        manager = make_manager(split, model,
                               oracle=make_split_oracle(X_shifted[:half], y[:half]))
        result = drift_replay(manager, split.X_val, X_shifted[:half],
                              X_shifted[half:], y[half:], batch_rows=60)
        drift = [b for b in result.batches if b["phase"] == "drift"]
        confirming = drift[result.batches_to_detection - 1]
        assert confirming["generation"] == 1  # the confirming batch's cycle swapped
        served = auprc(y[half:], model.decision_function(X_shifted[half:]))
        assert result.auprc_at_detection == served
        assert result.auprc_at_detection != confirming["auprc"]


class TestBatchRecords:
    def test_records_say_which_batches_got_a_drift_report(self, split, model):
        X_shifted = shift_regime(split.X_test, shift=6.0, seed=0)
        half = len(X_shifted) // 2
        y = np.where(split.test_kind == KIND_TARGET, 1, 0)
        manager = make_manager(split, model)
        result = drift_replay(manager, split.X_val, X_shifted[:half],
                              X_shifted[half:], y[half:], batch_rows=8)
        checked = [b for b in result.batches if b["checked"]]
        waiting = [b for b in result.batches if not b["checked"]]
        assert checked and waiting
        assert all(b["max_ks"] is None and b["drifted"] is False for b in waiting)
        assert all(isinstance(b["max_ks"], float) for b in checked)
        assert result.batches_to_detection is not None


@pytest.mark.slow
def test_ci_smoke_configuration_reports_no_recovery(tmp_path):
    """The lifecycle lane's CLI smoke gains less than the margin over the stale model."""
    out = tmp_path / "lifecycle.json"
    assert main(["lifecycle", "--dataset", "kddcup99", "--scale", "0.02",
                 "--refit-epochs", "2", "--json", str(out)]) == 0
    replay = json.loads(out.read_text())["replay"]
    assert replay["swaps"] > 0
    assert replay["auprc_final"] - replay["auprc_stale_final"] < RECOVERY_MARGIN
    assert replay["recovered"] is False
