"""Documentation consistency: the docs must not drift from the code.

These tests cross-check the claims documents make (README, DESIGN.md,
EXPERIMENTS.md, docs/api.md) against the actual code and files, so a
rename or removal fails CI instead of silently rotting the docs.
"""

import argparse
import ast
import fnmatch
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Documents whose file references must resolve.
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/api.md")


#: A file name with an extension the docs cite: a bare name, a
#: repo-relative path or a glob such as ``bench_*.py``.
FILE_NAME = re.compile(r"[\w.*-][\w./*-]*\.(?:py|json|jsonl|txt|md|sh|toml|npz|csv)")


def cited_files(text):
    """Files a document cites in backticks.

    A backticked span that is exactly a file name cites that file. Inside
    a backticked command, only relative paths with a directory part count:
    a bare ``model.npz`` there is an argument the reader creates.
    """
    cited = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        if FILE_NAME.fullmatch(span):
            cited.add(span)
        else:
            cited.update(token for token in span.split()
                         if "/" in token and not token.startswith("/")
                         and FILE_NAME.fullmatch(token))
    return cited


def repo_files():
    """Repo-relative paths of the files on disk, outside hidden and cache dirs."""
    return [
        path.relative_to(REPO).as_posix() for path in REPO.rglob("*")
        if path.is_file() and not any(
            part.startswith(".") or part == "__pycache__"
            for part in path.relative_to(REPO).parts
        )
    ]


def design_module_paths(text):
    """``repro/<pkg>/<module>.py`` paths in ``text``, brace lists expanded."""
    paths = []
    for pkg, stem in re.findall(r"repro/(\w+)/(\{[^}]*\}|[\w*]+)\.py", text):
        names = stem.strip("{}").split(",") if stem.startswith("{") else [stem]
        paths += [f"{pkg}/{name.strip()}.py" for name in names]
    return paths


def requirement_names(requirements):
    """Distribution names of PEP 508 requirement strings, lower-cased."""
    return {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}


def pyproject_list(table, key):
    """A string-list value of ``pyproject.toml``, without ``tomllib``.

    ``tomllib`` arrived in Python 3.11 and the project supports 3.10, so
    the array is cut out of its table and read as a Python literal.
    """
    text = (REPO / "pyproject.toml").read_text()
    body = text.split(f"\n[{table}]\n", 1)[1].split("\n[", 1)[0]
    match = re.search(rf"^{key}\s*=\s*(\[.*?\])", body, re.MULTILINE | re.DOTALL)
    return ast.literal_eval(match.group(1))


def top_level_imports(root):
    """``{module: first file importing it}`` for absolute imports under ``root``."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.setdefault(module.split(".")[0], path.relative_to(REPO))
    return found


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

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_cited_file_exists(self, doc):
        files = repo_files()
        cited = cited_files((REPO / doc).read_text())
        missing = sorted(
            name for name in cited
            if not any(fnmatch.fnmatch(f, name) or fnmatch.fnmatch(f, "*/" + name)
                       for f in files)
        )
        assert not missing, f"{doc} cites files the repo does not contain: {missing}"

    def test_citation_reader(self):
        text = ("`bench_*.py` `bench_output.txt` `python3 perfbench/run.py --seed 1` "
                "`repro train --output model.npz` `--json /tmp/x.json` `repro/{a,b}.py`")
        assert cited_files(text) == {"bench_*.py", "bench_output.txt", "perfbench/run.py"}


class TestDependencies:
    @pytest.fixture(scope="class")
    def runtime(self):
        return requirement_names(pyproject_list("project", "dependencies"))

    @pytest.fixture(scope="class")
    def dev(self):
        return requirement_names(pyproject_list("project.optional-dependencies", "dev"))

    def test_hand_reader_agrees_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert pyproject_list("project", "dependencies") == project["dependencies"]
        assert (pyproject_list("project.optional-dependencies", "dev")
                == project["optional-dependencies"]["dev"])

    def test_every_import_is_stdlib_repro_or_declared(self, runtime):
        imports = top_level_imports(REPO / "src" / "repro")
        assert "numpy" in imports  # the walk reads the package
        undeclared = {
            module: str(path) for module, path in imports.items()
            if module not in sys.stdlib_module_names
            and module != "repro" and module not in runtime
        }
        assert not undeclared, f"imported but not a runtime dependency: {undeclared}"

    def test_scipy_is_test_only(self, runtime, dev):
        assert "scipy" not in runtime
        assert "scipy" in dev

    def test_importing_the_package_loads_no_scipy(self):
        code = ("import sys, repro, repro.serving, repro.lifecycle; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]", out.stdout

    @pytest.mark.parametrize("extra", ["runtime", "dev"])
    def test_readme_install_lines_name_exactly_the_dependencies(self, runtime, dev, extra):
        command = r"pip install -e \." if extra == "runtime" else r'pip install -e "\.\[dev\]"'
        readme = (REPO / "README.md").read_text()
        comment = re.search(rf"^{command}\s+#(.*)$", readme, re.MULTILINE).group(1)
        named = set(re.findall(r"[a-z][\w-]*", comment.lower()))
        expected = runtime if extra == "runtime" else dev
        assert named & (runtime | dev) == expected, comment


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
