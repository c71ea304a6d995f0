"""The package metadata in pyproject.toml points only at code that exists,
the package's checks survive ``python -O``, and only the sampler draws
random numbers."""

import ast
import importlib
import re
import tomllib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "ramify"
WORKFLOW = PYPROJECT.parent / ".github" / "workflows" / "tier1.yml"


def dangling_scripts(project: dict) -> list:
    """The ``[project.scripts]`` entries whose ``module:attribute`` target
    cannot be imported, as ``name = target`` strings."""
    dangling = []
    for name, target in project.get("scripts", {}).items():
        module, _, attribute = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in filter(None, attribute.split(".")):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            dangling.append(f"{name} = {target}")
    return dangling


def test_every_declared_script_imports():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert dangling_scripts(project) == []


def test_dangling_script_is_detected():
    project = {"scripts": {"ok": "ramify.numono:parse_poly",
                           "no_module": "ramify.no_such_module:main",
                           "no_attribute": "ramify.numono:no_such_function"}}
    assert dangling_scripts(project) == [
        "no_module = ramify.no_such_module:main",
        "no_attribute = ramify.numono:no_such_function"]


def test_python_floor_is_the_version_ci_runs():
    """``requires-python`` names the Python that CI installs: the suite
    itself needs ``tomllib`` (3.11), and so does the pinned numpy."""
    floor = tomllib.loads(PYPROJECT.read_text())["project"]["requires-python"]
    ci = re.findall(r'python-version:\s*"([0-9.]+)"', WORKFLOW.read_text())
    assert ci and floor == f">={ci[0]}", (floor, ci)
    assert set(ci) == {ci[0]}


def package_nodes():
    """(module file name, AST node) for every node of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def imports_random(node) -> bool:
    """Whether an AST node imports the standard ``random`` module or a
    name from it."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "random"
                   for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and not node.level
            and (node.module or "").split(".")[0] == "random")


def test_package_has_no_assert_statement():
    """``python -O`` strips assert statements, so no check in the package
    may be one."""
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_sampler_imports_random():
    """The group layer and every check are deterministic: of the package's
    modules only ``gen``, whose seeded sampler draws covers, imports
    ``random``."""
    found = {name for name, node in package_nodes() if imports_random(node)}
    assert found == {"gen.py"}


@pytest.mark.parametrize("source, expected", [
    ("import random", True),
    ("import os, random as r", True),
    ("from random import Random", True),
    ("from . import random", False),
    ("import numpy.random", False),
    ("from numpy import random", False),
])
def test_random_import_is_detected(source, expected):
    node = ast.parse(source).body[0]
    assert imports_random(node) is expected
