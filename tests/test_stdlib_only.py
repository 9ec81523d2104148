"""The package runs on the Python standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraisse

PACKAGE = Path(fraisse.__file__).resolve().parent


def _imported_roots(path):
    """Top-level names of the absolute imports in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_fraisse(path):
    foreign = {
        root
        for root in _imported_roots(path)
        if root != "fraisse" and root not in sys.stdlib_module_names
    }
    assert not foreign


def _loaded_by_cli_import(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", f"import sys, fraisse.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    return child.stdout.decode().strip() == "True"


def test_cli_import_loads_no_numpy():
    assert not _loaded_by_cli_import("numpy")


def test_cli_import_loads_no_multiprocessing():
    # only ``verify_configuration(jobs > 1)`` needs a process pool
    assert not _loaded_by_cli_import("multiprocessing")
