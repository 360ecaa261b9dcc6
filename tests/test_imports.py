"""Every name a package module imports is used in that module. The package
namespace (__init__.py), which imports names only to export them, is
left out."""

import ast
from pathlib import Path

import pytest

import thermalqfi

MODULES = sorted(p for p in Path(thermalqfi.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nprint(np.pi, sep)\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: path"]
