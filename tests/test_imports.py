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


SOURCES = sorted(Path(thermalqfi.__file__).parent.glob("*.py"))


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    """module: name of every module-level private (_name) function or class
    that no line outside its own definition references, in any module of
    sources: as a name, an attribute or an imported name."""
    statements = [(module, node) for module, text in sources.items() for node in ast.parse(text).body]
    names = {}
    for _, node in statements:
        names[id(node)] = {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }
    return [
        f"{module}: {node.name}"
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names[id(other)] for _, other in statements if other is not node)
    ]


def test_every_private_function_and_class_is_referenced():
    assert _unreferenced_private({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_an_unreferenced_private_function_is_found():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\nclass _Orphan:\n    pass\n",
        "b.py": "from a import _used\n\n\ndef public():\n    return _used()\n\n\ndef __getattr__(name):\n    pass\n",
    }
    assert _unreferenced_private(sources) == ["a.py: _recursive", "a.py: _Orphan"]
