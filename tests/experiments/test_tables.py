"""Programmatic Table III/IV protocols."""

import pytest

from repro.experiments.tables import ABLATION_VARIANTS, ablation, triclass_report


class TestAblation:
    def test_structure_and_ranges(self):
        out = ablation(
            "kddcup99",
            variants={"TargAD": {}, "TargAD_-O-R": dict(use_oe_loss=False, use_re_loss=False)},
            seeds=(0,),
            scale=0.015,
        )
        assert set(out) == {"TargAD", "TargAD_-O-R"}
        for row in out.values():
            assert 0.0 <= row["auprc"] <= 1.0
            assert row["auprc_std"] >= 0.0

    def test_variant_may_set_k(self):
        out = ablation("kddcup99", variants={"k=2": {"k": 2}}, seeds=(0,), scale=0.015)
        assert 0.0 <= out["k=2"]["auprc"] <= 1.0

    def test_default_variants_match_paper(self):
        assert set(ABLATION_VARIANTS) == {"TargAD", "TargAD_-O", "TargAD_-R", "TargAD_-O-R"}


class TestTriclassReport:
    def test_reports_per_strategy(self):
        out = triclass_report("kddcup99", strategies=("msp", "ed"), scale=0.015)
        assert set(out) == {"msp", "ed"}
        for report in out.values():
            assert "macro avg" in report
            assert 0.0 <= report["macro avg"]["f1"] <= 1.0
