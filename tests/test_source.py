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


def _definitions(tree: ast.Module, methods: bool = True):
    """(line, name) of each module-level assignment, function and class, and of each method unless ``methods``
    is false."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, target.id) for target in targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef) and methods:
                yield from ((f.lineno, f.name) for f in node.body if isinstance(f, ast.FunctionDef))


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a name or an attribute, or imports from another module."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Each private name ``_definitions`` finds that no module of ``sources`` reads, imports or calls."""
    defined: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, line, name) for line, name in _definitions(tree)
                    if name.startswith("_") and not name.endswith("__")]
        used |= _read_names(tree)
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in used]


def test_dead_private_names_are_detected():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\ndef _f(): return _A\nclass _C:\n    def _m(self): pass\n"
                "    def __eq__(s, o): pass\n",
        "b.py": "from a import _f\nx = _C()._gone\n",
    }
    assert dead_private_names(sources) == ["a.py line 2: _B", "a.py line 5: _m"]


def test_package_modules_have_no_unused_private_names():
    package = sorted(Path(labelproj.__file__).parent.glob("*.py"))
    assert dead_private_names({path.name: path.read_text(encoding="utf-8") for path in package}) == []


def dead_public_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """Each public module-level function, class and constant of ``sources`` that no module of ``sources``
    reads or imports and that ``exported`` does not list."""
    defined: list[tuple[str, int, str]] = []
    used = set(exported)
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, line, name) for line, name in _definitions(tree, methods=False)
                    if not name.startswith("_")]
        used |= _read_names(tree)
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in used]


def test_dead_public_names_are_detected():
    sources = {
        "a.py": "A = 1\nB: int = 2\ndef f(): return A\nclass C:\n    def m(self): pass\ndef g(): pass\n"
                "def kept(): pass\n",
        "b.py": "from a import f\nx = 3\n",
    }
    assert dead_public_names(sources, {"kept"}) == ["a.py line 2: B", "a.py line 4: C", "a.py line 6: g",
                                                    "b.py line 2: x"]


def test_package_modules_have_no_unused_public_names():
    package = sorted(Path(labelproj.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in package}
    assert dead_public_names(sources, set(labelproj.__all__)) == []


def test_package_all_lists_exactly_what_init_imports():
    tree = ast.parse(Path(labelproj.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module != "__future__" for alias in node.names}
    assert len(labelproj.__all__) == len(set(labelproj.__all__))
    assert set(labelproj.__all__) == imported


def readers_of(sources: dict[str, str], names: set[str]) -> list[str]:
    """``module: function`` for each outermost function or method of ``sources`` that reads one of ``names``
    (``a.b`` reads ``a``), and ``module: <module>`` where module-level code reads one."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for member in node.body if isinstance(node, ast.ClassDef) else [node]:
                if not isinstance(member, ast.FunctionDef):
                    site = "<module>"
                else:
                    site = member.name if member is node else f"{node.name}.{member.name}"
                read = {dotted for sub in ast.walk(member) if isinstance(getattr(sub, "ctx", None), ast.Load)
                        and (dotted := _dotted(sub))}
                if any(name == target or name.startswith(target + ".") for name in read for target in names):
                    found.append(f"{module}: {site}")
    return sorted(set(found))


def test_readers_are_detected():
    sources = {
        "a.py": "S = re.compile('x')\ndef f(): return S.finditer('')\ndef g(): return 1\n"
                "class C:\n    T = S\n    def m(self): return json.loads('1')\n",
        "b.py": "S = 2\nfrom a import S as R\nprint(R)\n",
    }
    assert readers_of(sources, {"S", "json.loads"}) == ["a.py: <module>", "a.py: C.m", "a.py: f"]


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(labelproj.__file__).parent.glob("*.py"))}


def test_one_function_scans_for_markers():
    # Decode and the seeded backends take their markers from this one pass; ``signature`` counts the same
    # scanners' matches without stripping or pairing them, so there is still one marker grammar.
    assert readers_of(_package_sources(), {"_SCANNER", "_BRACKET_SCANNER"}) == [
        "codec.py: scan_markers", "codec.py: signature"
    ]


def test_one_function_parses_json_read_from_outside():
    # One rule for files and HTTP bodies alike: JSON, not nested too deeply, with no lone surrogate.
    assert readers_of(_package_sources(), {"json.loads"}) == ["dataio.py: parse_json"]


def test_one_function_checks_tag_names():
    # Reading a record, encoding and the plain-text reader all take the span rule from ``validate``.
    assert readers_of(_package_sources(), {"_TAG_NAME_RE"}) == ["model.py: validate"]


def test_one_function_windows_the_documents_of_a_run():
    # ``project`` is the one per-document path from input to output; ``dump`` only peeks at its first item.
    assert readers_of(_package_sources(), {"islice"}) == ["codec.py: project", "dataio.py: dump"]
