"""The scripts reach dickesim by name; every name must resolve.

``scripts/*.py`` import from the package, and ``scripts/fit_two_lifetimes.py``
writes configuration files for the CLI.  Both are read from the files'
source, so nothing under ``scripts/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

from dickesim.cli import CONFIG_KEYS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_every_name_the_scripts_import_resolves():
    imported = []
    for path in sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dickesim":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    imported.append(alias.name)
    assert imported


def test_every_key_fit_two_lifetimes_writes_is_a_config_key():
    # the literal parts of the script's strings that open a "<namespace>.<key> =" line
    tree = ast.parse((SCRIPTS / "fit_two_lifetimes.py").read_text())
    written = {
        match.group(1)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for match in re.finditer(r"^([a-z]+\.\w+) =", node.value, flags=re.MULTILINE)
    }
    assert {"fit.datasets", "fit.refine", "pulse.response_fs", "model.g_neV"} <= written
    assert written <= set(CONFIG_KEYS), sorted(written - set(CONFIG_KEYS))
