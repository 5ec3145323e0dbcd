"""The names other code reaches into messi by must keep resolving.

perfbench's tracer replaces every function in `tracing.WRAPPED` by
`getattr(module, attr)`, so a removed or renamed name fails every traced
benchmark run; `messi.__all__` promises the package's public names. The CLI
imports no `_`-prefixed name from the package, and the package imports
nothing but numpy, click and the standard library.
"""

import ast
import glob
import importlib
import importlib.util
import os
import sys

import messi

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
PACKAGE = os.path.join(ROOT, "src", "messi")
CLI = os.path.join(PACKAGE, "cli.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [f"{module}.{attr}" for module, attr, *_ in tracing.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_all_names_resolve():
    missing = [name for name in messi.__all__ if not hasattr(messi, name)]
    assert not missing


def test_cli_imports_no_private_names():
    """The CLI is built from public names only, so it uses what library callers use."""
    with open(CLI) as fh:
        tree = ast.parse(fh.read())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "messi")
               for alias in node.names if alias.name.startswith("_")]
    assert not private


def test_package_imports_only_numpy_click_and_stdlib():
    """The dependency rule: every module imports numpy, click, the standard library or messi."""
    allowed = {"numpy", "click", "messi"} | set(sys.stdlib_module_names)
    imported = set()
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"numpy", "click"} <= imported
    assert imported <= allowed, sorted(imported - allowed)
