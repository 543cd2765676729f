"""Integrity checks for the mkdocs documentation site.

The strict site build (``mkdocs build --strict``) runs in CI where mkdocs +
mkdocstrings are installed; these tests catch the same classes of breakage
— dangling nav entries, unresolvable ``::: identifier`` directives, and a
paper-mapping table that drifted from the benchmark modules — with only the
repository's own toolchain, so a broken docs change fails tier-1 locally
instead of surfacing one CI job later.
"""

import importlib
import re
from pathlib import Path

import pytest
import yaml

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"


def _load_mkdocs_config() -> dict:
    # mkdocs.yml may use python-specific tags in some setups; ours is plain
    return yaml.safe_load(MKDOCS_YML.read_text())


def _nav_paths(nav) -> "list[str]":
    paths = []
    for entry in nav:
        if isinstance(entry, str):
            paths.append(entry)
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    paths.append(value)
                else:
                    paths.extend(_nav_paths(value))
    return paths


class TestMkdocsConfig:
    def test_config_parses_and_uses_strict_friendly_layout(self):
        config = _load_mkdocs_config()
        assert config["docs_dir"] == "docs"
        plugin_names = [p if isinstance(p, str) else next(iter(p))
                        for p in config["plugins"]]
        assert "mkdocstrings" in plugin_names

    def test_every_nav_entry_exists(self):
        config = _load_mkdocs_config()
        for path in _nav_paths(config["nav"]):
            assert (DOCS / path).is_file(), f"nav references missing {path}"

    def test_every_docs_page_is_reachable_from_nav(self):
        config = _load_mkdocs_config()
        nav = set(_nav_paths(config["nav"]))
        on_disk = {str(p.relative_to(DOCS)) for p in DOCS.rglob("*.md")}
        assert on_disk == nav, (
            f"pages not in nav: {sorted(on_disk - nav)}; "
            f"nav without pages: {sorted(nav - on_disk)}"
        )


class TestApiDirectives:
    def test_every_mkdocstrings_identifier_imports(self):
        identifiers = []
        for page in DOCS.rglob("*.md"):
            identifiers.extend(
                re.findall(r"^::: (\S+)$", page.read_text(), re.M))
        assert identifiers, "no mkdocstrings directives found under docs/"
        for identifier in identifiers:
            importlib.import_module(identifier)

    def test_public_federated_modules_are_documented(self):
        documented = (DOCS / "api" / "federated.md").read_text()
        for module in ("client", "server", "executor", "workspace",
                       "aggregation", "simulation", "history"):
            assert f"::: repro.federated.{module}" in documented, module


class TestPaperMapping:
    def test_every_experiment_module_is_mapped(self):
        mapping = (DOCS / "paper_mapping.md").read_text()
        experiment_modules = sorted(
            p.name for p in (REPO_ROOT / "benchmarks").glob("test_*.py"))
        assert experiment_modules, "no benchmark experiment modules found"
        missing = [m for m in experiment_modules
                   if f"benchmarks/{m.removesuffix('.py')}" not in mapping]
        assert not missing, f"paper_mapping.md misses {missing}"

    def test_mapped_modules_exist(self):
        mapping = (DOCS / "paper_mapping.md").read_text()
        for ref in re.findall(r"`benchmarks/(test_\w+)\.py`", mapping):
            assert (REPO_ROOT / "benchmarks" / f"{ref}.py").is_file(), ref

    @pytest.mark.parametrize("artefact", [
        "Figure 2", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
        "Figure 10", "Table 1", "Table 2", "Eq. (2)", "§6.4",
    ])
    def test_key_paper_artefacts_are_covered(self, artefact):
        assert artefact in (DOCS / "paper_mapping.md").read_text(), artefact
