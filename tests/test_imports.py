"""Every module of the package uses each name it imports (no linter needed)."""
import ast
from pathlib import Path

import permclass

PACKAGE = Path(permclass.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scan_flags_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c\nc()\n") == ["b (line 2)", "os (line 1)"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_package_modules_have_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _package_imports(source: str) -> tuple[set[str], list[int]]:
    """The package modules a source imports, and the lines of any import that
    is not a plain top-level statement (inside a function, an `if`, a `try`)."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    modules, nested = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
            nested.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.level:
            modules.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            modules.update(name for name in names if name.split(".")[0] == "permclass")
    return modules, nested


def test_scan_finds_package_and_nested_imports():
    source = (
        "from __future__ import annotations\nfrom . import a\nfrom .b import c\n"
        "import permclass.d\nfrom permclass.e import f\nif X:\n    import os\n"
    )
    assert _package_imports(source) == ({"a", "b", "permclass.d", "permclass.e"}, [7])


def test_structure_imports_only_perms_and_perms_imports_nothing_from_the_package():
    # An `if TYPE_CHECKING:` import counts as nested.
    assert _package_imports((PACKAGE / "structure.py").read_text()) == ({"perms"}, [])
    assert _package_imports((PACKAGE / "perms.py").read_text()) == (set(), [])
