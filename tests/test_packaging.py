"""The packaging metadata covers what the test suite imports."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def third_party_imports():
    """Top-level names the test modules import, by an import statement or
    by ``pytest.importorskip``, less the standard library, the package
    itself and the modules that live beside the tests."""
    local = {path.stem for path in TESTS.glob("*.py")}
    names = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"
                  and isinstance(node.args[0], ast.Constant)):
                names.add(node.args[0].value.split(".")[0])
    return names - set(sys.stdlib_module_names) - local - {"anick"}


def test_extra_lists_every_test_import():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
              for req in extra}
    imported = third_party_imports()
    assert {"pytest", "hypothesis", "sympy"} <= imported
    assert imported <= listed, f"missing from the test extra: {sorted(imported - listed)}"
