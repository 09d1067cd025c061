"""The package version has one source: ``repro.__version__``."""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")


def test_pyproject_takes_its_version_from_the_package():
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    project = doc["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    attr = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "repro.__version__"


def test_package_version_is_a_literal_setuptools_can_read():
    # setuptools reads the attr statically when the assignment is a
    # plain string literal, without importing the package.
    tree = ast.parse((ROOT / "src" / "repro" / "__init__.py").read_text())
    literals = [node.value.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__version__"]
                and isinstance(node.value, ast.Constant)]
    assert literals == [repro.__version__]
