"""Every name a module under src/ or tests/ imports is used in that module
or listed in its __all__ (`from __future__` imports excepted), every
function, class and constant a module under src/ defines at its top level is
named outside its definition, in src/, tests/ or perfbench/, and the private
names one module under src/ imports from another are those listed here."""

import ast
from collections import Counter
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


def names_in(node: ast.AST) -> Counter:
    """How often each name is read, looked up as an attribute or imported
    in `node`."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names


def dead_definitions(sources: dict[str, str], scanned) -> list[str]:
    """The top-level functions, classes and constants of the modules
    `scanned` that no code in `sources` (path -> text) names outside the
    statement that defines them; dunder names excepted."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    named = sum((names_in(tree) for tree in trees.values()), Counter())
    dead = []
    for path in scanned:
        for stmt in trees[path].body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = names_in(stmt)
            dead += [f"{path}:{stmt.lineno}: {name}" for name in defined
                     if not name.startswith("__") and named[name] == own[name]]
    return dead


def test_the_scan_finds_a_dead_definition():
    sources = {"a.py": "import b\nX = 1\nY: int = 2\ndef f():\n    return f() + b.g() + Y\n"
                       "class C:\n    pass\n__all__ = []\n",
               "b.py": "from a import C\ndef g():\n    return 0\n"}
    assert dead_definitions(sources, ["a.py"]) == ["a.py:2: X", "a.py:4: f"]
    assert dead_definitions(sources, ["b.py"]) == []


def test_every_definition_under_src_is_named():
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    sources = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in paths}
    assert dead_definitions(sources, [p for p in sources if p.startswith("src/")]) == []


# Every underscore name a module under src/ imports from another stlrank
# module, as (importer, defining module, name). Each is a coupling past a
# module's public names; a new one fails until it is listed here on purpose.
PRIVATE_IMPORTS = {
    ("stlrank.analytics", "stlrank.core.semantics", "_grid_length"),
    ("stlrank.analytics", "stlrank.core.semantics", "_row_verdicts"),
    ("stlrank.analytics", "stlrank.ingest", "_write_csv_rows"),
    ("stlrank.analytics", "stlrank.parser", "_fmt_num"),
    ("stlrank.props", "stlrank.parser", "_fmt_num"),
    ("stlrank.cli", "stlrank.analytics", "_csv_text"),
}


def private_imports(path: str, source: str) -> set[tuple[str, str, str]]:
    """(importer, defining module, name) of each underscore name that the
    module at `path`, relative to src/, imports from a stlrank module."""
    parts = path.removesuffix(".py").split("/")
    package = parts[:-1]
    module = ".".join(package if parts[-1] == "__init__" else parts)
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        source_module = node.module
        if node.level:
            base = package[:len(package) - node.level + 1]
            source_module = ".".join(base + ([node.module] if node.module else []))
        if source_module.partition(".")[0] != "stlrank":
            continue
        found.update((module, source_module, alias.name) for alias in node.names
                     if alias.name.startswith("_") and not alias.name.startswith("__"))
    return found


def test_the_scan_finds_a_private_import():
    source = ("from .b import _x, y\nfrom ..c import _z\nfrom os import _w\n"
              "from stlrank.d import _v\n")
    assert private_imports("stlrank/core/a.py", source) == {
        ("stlrank.core.a", "stlrank.core.b", "_x"), ("stlrank.core.a", "stlrank.c", "_z"),
        ("stlrank.core.a", "stlrank.d", "_v")}
    assert private_imports("stlrank/core/__init__.py", "from .a import _x\n") == {
        ("stlrank.core", "stlrank.core.a", "_x")}


def test_private_names_cross_modules_only_as_listed():
    found = set()
    for p in sorted((ROOT / "src").rglob("*.py")):
        path = p.relative_to(ROOT / "src").as_posix()
        found |= private_imports(path, p.read_text(encoding="utf-8"))
    assert found == PRIVATE_IMPORTS
