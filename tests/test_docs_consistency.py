"""Documentation consistency: the docs must not drift from the code.

These tests cross-check the claims documents make (README, DESIGN.md,
EXPERIMENTS.md, docs/api.md) against the actual code and files, so a
rename or removal fails CI instead of silently rotting the docs.
"""

import argparse
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Documents whose file references must resolve.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/api.md")


def design_module_paths(text):
    """``repro/<pkg>/<module>.py`` paths in ``text``, brace lists expanded."""
    paths = []
    for pkg, stem in re.findall(r"repro/(\w+)/(\{[^}]*\}|[\w*]+)\.py", text):
        names = stem.strip("{}").split(",") if stem.startswith("{") else [stem]
        paths += [f"{pkg}/{name.strip()}.py" for name in names]
    return paths


def registered_subcommands():
    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    return set()


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_quickstart_code_runs_conceptually(self, readme):
        # Every symbol the quickstart imports must exist at top level.
        import repro

        match = re.search(r"from repro import (.+)", readme)
        assert match is not None
        for symbol in [s.strip() for s in match.group(1).split(",")]:
            assert hasattr(repro, symbol), symbol

    def test_mentioned_examples_exist(self, readme):
        for name in re.findall(r"`(\w+\.py)`", readme):
            if name in ("setup.py",):
                continue
            assert (REPO / "examples" / name).exists(), name

    def test_env_knobs_match_code(self, readme):
        from repro.data.splits import default_scale  # noqa: F401 - existence

        for knob in ("REPRO_SCALE", "REPRO_BENCH_SCALE", "REPRO_BENCH_SEEDS"):
            assert knob in readme


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO / "DESIGN.md").read_text()

    def test_all_bench_targets_exist(self, design):
        for name in set(re.findall(r"benchmarks/(bench_\w+\.py)", design)):
            assert (REPO / "benchmarks" / name).exists(), name

    def test_listed_modules_exist(self, design):
        for path in set(re.findall(r"repro/(\w+)/", design)):
            assert (REPO / "src" / "repro" / path).is_dir(), path

    def test_listed_module_files_exist(self, design):
        paths = design_module_paths(design)
        assert "serving/pipeline.py" in paths  # the brace lists are parsed
        for path in paths:
            assert list((REPO / "src" / "repro").glob(path)), path


class TestApiDoc:
    @pytest.fixture(scope="class")
    def api(self):
        return (REPO / "docs" / "api.md").read_text()

    def test_detector_names_current(self, api):
        from repro.eval.registry import DETECTOR_NAMES, EXTRA_DETECTOR_NAMES

        for name in DETECTOR_NAMES + EXTRA_DETECTOR_NAMES:
            # CLI/API docs reference classes; registry names appear for most.
            base = name.replace("-", "")
            assert base in api.replace("-", "") or name in api, name

    def test_core_methods_exist(self, api):
        from repro.core import TargAD

        for method in re.findall(r"model\.(\w+)\(", api):
            assert hasattr(TargAD, method), method


class TestFileReferences:
    @pytest.mark.parametrize("doc", DOCS)
    def test_scripts_and_bench_files_exist(self, doc):
        text = (REPO / doc).read_text()
        for path in set(re.findall(r"scripts/[\w.-]*\w", text)):
            assert (REPO / path).exists(), f"{doc} names missing {path}"
        for name in set(re.findall(r"BENCH_\w+\.json", text)):
            assert (REPO / name).exists(), f"{doc} names missing {name}"


class TestCliReferences:
    def test_readme_subcommands_registered(self):
        text = (REPO / "README.md").read_text()
        named = set()
        for group in re.findall(r"`repro ([a-z][\w-]*(?:\|[a-z][\w-]*)*)", text):
            named.update(group.split("|"))
        assert named
        assert named <= registered_subcommands(), named - registered_subcommands()

    def test_api_cli_section_subcommands_registered(self):
        text = (REPO / "docs" / "api.md").read_text()
        section = text.split("\n## CLI", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"^repro ([a-z][\w-]*)", section, re.MULTILINE))
        assert named
        assert named <= registered_subcommands(), named - registered_subcommands()


class TestExperimentsDoc:
    def test_every_bench_has_an_entry(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for bench in (REPO / "benchmarks").glob("bench_*.py"):
            assert bench.name in text, f"{bench.name} missing from EXPERIMENTS.md"
