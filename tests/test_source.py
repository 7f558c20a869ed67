"""Static checks over the package's own source files."""

from __future__ import annotations

import ast
from pathlib import Path

import labelproj

SOURCES = sorted(p for p in Path(labelproj.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {name for node in ast.walk(tree) if (name := _dotted(node))}
    # ``import a.b`` counts as used by ``a.b`` or ``a.b.x``, not by ``a.c``.
    prefixes = {".".join(name.split(".")[:k]) for name in used for k in range(1, name.count(".") + 2)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in prefixes]


def test_unused_imports_are_detected():
    source = "import a.b\nimport a.c\nfrom x import y, z\nfrom __future__ import annotations\nz(a.b.q)\n"
    assert unused_imports(source) == ["line 2: a.c", "line 3: y"]


def test_package_modules_have_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_package_all_lists_exactly_what_init_imports():
    tree = ast.parse(Path(labelproj.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module != "__future__" for alias in node.names}
    assert len(labelproj.__all__) == len(set(labelproj.__all__))
    assert set(labelproj.__all__) == imported
