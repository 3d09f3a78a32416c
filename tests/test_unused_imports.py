"""Every name a library module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  ``from __future__`` imports and the re-exports
of ``bdspin/__init__.py`` are exempt.
"""

import ast
from pathlib import Path

import pytest

import bdspin

PACKAGE = Path(bdspin.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_name():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import Any\nsys.exit()\n"
    assert unused_imports(source) == ["os (line 2)", "Any (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []
