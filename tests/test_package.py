"""The package's public surface, and no unused imports inside it."""

import ast
from pathlib import Path

import crsing


def test_every_exported_name_resolves():
    missing = [name for name in crsing.__all__ if not hasattr(crsing, name)]
    assert missing == []
    assert len(set(crsing.__all__)) == len(crsing.__all__)


SRC = Path(__file__).resolve().parent.parent / "src" / "crsing"


def _unused_imports(source: str):
    """Names a module imports but never reads, by line number."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef)):
            # a quoted annotation such as -> "Poly" reads the names in it
            ann = node.annotation if isinstance(node, ast.arg) else node.returns
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                tree_ann = ast.parse(ann.value, mode="eval")
                used.update(n.id for n in ast.walk(tree_ann) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_import_check_flags_a_stray_name():
    source = "from typing import List, Optional\n\ndef f(x: 'Optional[int]'):\n    return x\n"
    assert _unused_imports(source) == [(1, "List")]
