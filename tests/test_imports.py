"""Every name a module under src/ or tests/ imports is used in that module
or listed in its __all__ (`from __future__` imports excepted)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.relative_to(ROOT).as_posix()
                 for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport re\nfrom a import b as c, d\nre.x\nd()\n") == [
        "line 1: os", "line 3: c"]
    assert unused_imports("from __future__ import annotations\nfrom a import b\n"
                          "__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES)
def test_every_import_is_used(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []
