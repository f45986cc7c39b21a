"""The package's import graph is one-way and visible at module level.

No module of ``thermoreg`` imports inside a function, so the graph can be
read off the module headers.  ``lti`` sits at its bottom: it imports
nothing from the package but ``errors``; ``fem`` and ``mesh`` import
nothing from it.  The package's ``__init__`` imports nothing, so a fresh
interpreter that imports one module loads only the package modules that
module needs.  Every file of the package and of its tests parses as
Python 3.10, the oldest version ``pyproject.toml`` allows.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermoreg

PACKAGE = Path(thermoreg.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [
        f"{path.name}:{node.lineno}"
        for func in ast.walk(_tree(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside a function: {nested}"


def _package_imports(name):
    imported = set()
    for node in ast.walk(_tree(PACKAGE / name)):
        if isinstance(node, ast.ImportFrom) and node.level:  # from .x import ..., from . import x
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "thermoreg":
            imported.add(node.module.removeprefix("thermoreg").lstrip(".") or "thermoreg")
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "thermoreg")
    return imported


def test_lti_imports_only_errors_from_the_package():
    assert _package_imports("lti.py") == {"errors"}


def test_fem_imports_nothing_from_the_package():
    for name in ("fem.py", "mesh.py"):
        assert _package_imports(name) == set(), name


@pytest.mark.parametrize(
    ("module", "loaded"),
    [
        ("lti", {"errors", "lti"}),
        ("controller", {"errors", "lti", "controller"}),
        ("mesh", {"mesh"}),
    ],
)
def test_import_loads_only_what_the_module_needs(module, loaded):
    # pytest's pythonpath does not reach a child process, so PYTHONPATH names the package's parent.
    code = f"import sys, thermoreg.{module}; print(sorted(m for m in sys.modules if m.startswith('thermoreg')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert ast.literal_eval(out.stdout) == sorted({"thermoreg"} | {f"thermoreg.{name}" for name in loaded})


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10, so later syntax such as except* is out.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
