"""The names other code reaches into messi by must keep resolving.

perfbench's tracer replaces every function in `tracing.WRAPPED` by
`getattr(module, attr)`, so a removed or renamed name fails every traced
benchmark run; `messi.__all__` promises the package's public names.
"""

import importlib
import importlib.util
import os

import messi

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


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
