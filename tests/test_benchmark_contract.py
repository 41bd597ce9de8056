"""The benchmark harness traces dickesim functions by name; every name must resolve.

``benchmarks/spans.py`` lists them in ``TRACED``, and ``Tracer.install``
raises AttributeError on the first one a module no longer has.  The list is
read from the file's source, so nothing under ``benchmarks/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _traced() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"dickesim.{layer}")
        for name in names:
            assert callable(getattr(module, name)), f"dickesim.{layer}.{name}"
