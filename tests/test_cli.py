"""CLI subcommands end-to-end (tiny scales)."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_info_single_dataset(self, capsys):
        assert main(["info", "--dataset", "kddcup99", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["name"] == "KDDCUP99"
        assert payload["D"] == 32

    def test_train_reports_metrics(self, capsys):
        code = main([
            "train", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AUPRC=" in out and "test" in out

    def test_train_save_then_evaluate(self, capsys, tmp_path):
        model_path = str(tmp_path / "model.npz")
        assert main([
            "train", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--k", "3", "--output", model_path,
        ]) == 0
        assert main([
            "evaluate", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--model", model_path, "--strategy", "ed",
        ]) == 0
        out = capsys.readouterr().out
        assert "Tri-class report (ED)" in out

    def test_compare_subset(self, capsys):
        code = main([
            "compare", "--dataset", "kddcup99", "--scale", "0.01",
            "--detectors", "iForest", "--n-seeds", "1",
        ])
        assert code == 0
        assert "iForest" in capsys.readouterr().out

    def test_compare_unknown_detector_errors(self, capsys):
        code = main([
            "compare", "--dataset", "kddcup99", "--detectors", "NotAModel",
        ])
        assert code == 2

    def test_report_subcommand(self, capsys, tmp_path):
        out = str(tmp_path / "rep.md")
        code = main([
            "report", "--output", out, "--datasets", "kddcup99",
            "--detectors", "iForest", "--scale", "0.015",
        ])
        assert code == 0
        assert "# TargAD experiment report" in open(out).read()

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.mark.taxonomy
class TestTaxonomyCLI:
    def test_taxonomy_smoke_cell(self, capsys, tmp_path):
        json_path = tmp_path / "tax.json"
        md_path = tmp_path / "tax.md"
        code = main([
            "taxonomy", "--dataset", "kddcup99", "--scale", "0.01",
            "--families", "local", "--detectors", "iForest",
            "--json", str(json_path), "--markdown", str(md_path),
            "--telemetry",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Cross-family taxonomy robustness" in out
        assert "local/unseen*" in out  # unseen cell marked in the table
        payload = json.loads(json_path.read_text())
        assert payload["detectors"] == ["iForest"]
        assert payload["unseen"]["local/unseen"] is True
        assert "# TargAD taxonomy robustness report" in md_path.read_text()
        assert "taxonomy.cells" in out  # telemetry dashboard rendered

    def test_taxonomy_unknown_detector_errors(self, capsys):
        code = main([
            "taxonomy", "--dataset", "kddcup99", "--detectors", "NotAModel",
        ])
        assert code == 2

    def test_taxonomy_unknown_family_errors(self, capsys):
        code = main([
            "taxonomy", "--dataset", "kddcup99", "--families", "nosuchfamily",
        ])
        assert code == 2


class TestResilienceCLI:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("resilience") / "model.npz")
        assert main([
            "train", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--k", "3", "--output", path,
        ]) == 0
        return path

    def test_default_plan_trips_and_recovers(self, capsys, model_path):
        code = main([
            "resilience", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--model", model_path, "--batches", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fault plan:" in out
        assert "DEGRADED" in out
        assert "resilience.breaker.trips = 1" in out
        assert "resilience.breaker.recovers = 1" in out
        assert "breaker transitions:" in out

    def test_custom_plan_file_and_corrupt_rows(self, capsys, model_path, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"raise_on": [1], "seed": 3}))
        code = main([
            "resilience", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--model", model_path, "--batches", "3",
            "--plan", str(plan), "--corrupt-rows", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "raise on call(s) [1]" in out
        assert "quarantined" in out

    def test_corrupt_model_file_exits_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"junk")
        code = main([
            "resilience", "--dataset", "kddcup99", "--scale", "0.02",
            "--seed", "0", "--model", str(bad),
        ])
        assert code == 2
        assert "cannot load model" in capsys.readouterr().err
