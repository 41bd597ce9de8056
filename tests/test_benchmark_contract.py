"""The benchmark harness reaches dickesim by name; every name must resolve.

``benchmarks/spans.py`` lists the functions it traces in ``TRACED``, and
``Tracer.install`` raises AttributeError on the first one a module no longer
has.  ``benchmarks/workloads.py`` calls the program through module
attributes (``cumulant.integrate``, ``fit.model_traces``, ...).  Both are
read from the files' source, so nothing under ``benchmarks/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
from collections.abc import Mapping
from pathlib import Path

from dickesim import fit

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"
WORKLOADS = BENCHMARKS / "workloads.py"


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


def test_every_name_the_workloads_read_resolves():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dickesim":
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dickesim."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
    assert {"cli", "cumulant", "fit", "lindblad", "spectrum"} <= set(modules)
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {("cumulant", "integrate"), ("fit", "model_traces"), ("fit", "LABEL_INFO")} <= read
    for name, attr in sorted(read):
        module = importlib.import_module(f"dickesim.{modules[name]}")
        assert hasattr(module, attr), f"dickesim.{modules[name]}.{attr}"


def test_the_model_table_is_a_mapping():
    # the fit_stiff workload iterates ``table.items()`` of a ``model_traces`` table
    assert issubclass(fit.ModelTable, Mapping)
